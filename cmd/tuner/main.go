// tuner runs the NDPipe training server: it listens for PipeStore
// registrations, triggers pipelined FT-DMP fine-tuning, distributes the
// Check-N-Run model delta, and refreshes the label database via near-data
// offline inference — the two-machine workflow of the artifact appendix.
//
//	tuner -listen :9230 -stores 2 -nrun 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/faultinject"
	"ndpipe/internal/flightdump"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/ha"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/tensor"
	"ndpipe/internal/tuner"
)

func main() {
	var (
		listen    = flag.String("listen", ":9230", "address to listen on")
		stores    = flag.Int("stores", 1, "number of PipeStores to wait for")
		nrun      = flag.Int("nrun", 3, "pipelined FT-DMP runs")
		batch     = flag.Int("batch", 128, "feature-extraction batch size")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics, /spans and /traces on this address (empty=off)")
		pprofOn   = flag.Bool("pprof", false, "also mount /debug/pprof on the telemetry server")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		acceptTTL = flag.Duration("accept-timeout", 0, "per-store registration deadline (0=wait forever)")
		par       = flag.Int("parallelism", 0, "compute-kernel worker count (0=GOMAXPROCS)")

		replication = flag.Int("replication", 0, "photo replication factor: rounds route each photo to a live ring replica, and failed stores are rebuilt from survivors after a degraded commit (0=off)")

		quorum     = flag.Int("quorum", 0, "minimum surviving stores for a round to commit (0=default 1)")
		storeTTL   = flag.Duration("store-timeout", 0, "per-store silence/send deadline (0=default 30s)")
		roundTTL   = flag.Duration("round-timeout", 0, "per-phase round deadline (0=default 5m)")
		maxRetries = flag.Int("max-retries", 0, "per-store send retries (0=default 3, -1=none)")
		backoff    = flag.Duration("backoff", 0, "base retry backoff, doubled and jittered (0=default 50ms)")
		faultSpec  = flag.String("fault-spec", "", "inject deterministic faults on accepted conns, e.g. 'seed=7;drop:write,after=40' (empty=off)")

		stateDir    = flag.String("state-dir", "", "persist the WAL, model archive and labels here; on restart, recover the last committed round (empty=in-memory)")
		compactKeep = flag.Int("compact-keep", 0, "after each round, compact the WAL keeping this many recent versions (0=never; needs -state-dir)")

		role     = flag.String("role", "leader", "leader|standby: standbys tail a leader's WAL and take over when its lease expires")
		haListen = flag.String("ha-listen", "", "accept hot-standby WAL-shipping connections on this address (needs -state-dir)")
		haPeers  = flag.String("ha-peers", "", "standby: comma-separated leader WAL-shipping addresses to replicate from")
		haLease  = flag.Duration("ha-lease", 0, "leadership lease: standbys take over after this much leader silence (0=default 2s)")
	)
	flag.Parse()
	tensor.SetParallelism(*par)
	if err := telemetry.SetupLogging(os.Stderr, *logLevel, *logJSON); err != nil {
		fatal(err)
	}
	log := telemetry.ComponentLogger("tuner")

	cfg := core.DefaultModelConfig()
	tn, err := tuner.New(cfg)
	if err != nil {
		fatal(err)
	}
	tn.AcceptTimeout = *acceptTTL

	// Readiness: the tuner is serving once state is recovered (trivially
	// true without -state-dir) and at least one store has registered.
	var stateReady atomic.Bool
	stateReady.Store(*stateDir == "")
	telemetry.Default.Health().RegisterCheck("state", func() error {
		if !stateReady.Load() {
			return fmt.Errorf("state not recovered")
		}
		return nil
	})
	telemetry.Default.Health().RegisterCheck("stores", func() error {
		if tn.NumStores() == 0 {
			return fmt.Errorf("no stores registered")
		}
		return nil
	})
	if *telAddr != "" {
		opts := []telemetry.ServeOption{telemetry.WithFleet(tn.Fleet())}
		if *pprofOn {
			opts = append(opts, telemetry.WithPprof())
		}
		addr, _, err := telemetry.Default.Serve(*telAddr, opts...)
		if err != nil {
			fatal(err)
		}
		log.Info("telemetry serving",
			slog.String("url", "http://"+addr),
			slog.Bool("pprof", *pprofOn))
	}
	if *stateDir != "" {
		// Crash black box: panic and SIGQUIT leave a replayable flight dump
		// in the state dir next to the WAL.
		defer flightdump.Recover(telemetry.Default, "tuner", *stateDir)
		defer flightdump.InstallSignal(telemetry.Default, "tuner", *stateDir)()
	}
	logRecovered := func(rec tuner.RecoveryReport) {
		log.Info("state recovered",
			slog.String("dir", *stateDir),
			slog.Int("version", rec.Version),
			slog.Int("epoch", rec.Epoch),
			slog.Int("wal_records", rec.Records),
			slog.Int64("torn_bytes", rec.TornBytes),
			slog.Int("labels", rec.Labels),
			slog.Duration("elapsed", rec.Elapsed))
	}
	switch *role {
	case "leader":
		if *stateDir != "" {
			rec, err := tn.OpenState(*stateDir)
			if err != nil {
				fatal(err)
			}
			logRecovered(rec)
			stateReady.Store(true)
		} else if *compactKeep > 0 {
			fatal(fmt.Errorf("-compact-keep needs -state-dir"))
		}
	case "standby":
		// Hot standby: tail the leader's WAL into -state-dir until its lease
		// expires, then recover from the replica and continue below as the
		// new leader (strictly higher epoch — stores fence the old one).
		if *stateDir == "" {
			fatal(fmt.Errorf("-role standby needs -state-dir"))
		}
		if *haPeers == "" {
			fatal(fmt.Errorf("-role standby needs -ha-peers"))
		}
		sb, err := ha.NewStandby(cfg, *stateDir, ha.Options{LeaseTimeout: *haLease})
		if err != nil {
			fatal(err)
		}
		sb.RegisterHealth(telemetry.Default.Health())
		peers := strings.Split(*haPeers, ",")
		log.Info("standby replicating", slog.Any("peers", peers))
		if err := sb.Run(peers); !errors.Is(err, ha.ErrLeaseExpired) {
			fatal(err)
		}
		tn2, rec, err := sb.TakeOver()
		if err != nil {
			fatal(err)
		}
		tn.Close()
		tn = tn2
		tn.AcceptTimeout = *acceptTTL
		logRecovered(rec)
		telemetry.Default.Health().SetRole(func() (string, int64) { return "leader", 0 })
		telemetry.Default.Health().RegisterCheck("ha-role", func() error { return nil })
		stateReady.Store(true)
	default:
		fatal(fmt.Errorf("unknown -role %q (leader|standby)", *role))
	}
	if *haListen != "" {
		// This node leads with a standby endpoint: every committed round is
		// fsynced locally AND acked by each attached standby before the
		// fleet sees its delta.
		if *stateDir == "" {
			fatal(fmt.Errorf("-ha-listen needs -state-dir"))
		}
		if tn.LeaderEpoch() == 0 {
			if _, err := tn.AssertLeadership(0); err != nil {
				fatal(err)
			}
		}
		ship := ha.NewShipper(tn, ha.Options{LeaseTimeout: *haLease})
		defer ship.Close()
		tn.SetReplicator(ship)
		hln, err := net.Listen("tcp", *haListen)
		if err != nil {
			fatal(err)
		}
		defer hln.Close()
		go func() { _ = ship.Serve(hln) }()
		log.Info("WAL shipping to standbys", slog.String("addr", hln.Addr().String()))
	}
	if *replication > 0 {
		if err := tn.EnableReplication(*replication); err != nil {
			fatal(err)
		}
		log.Info("photo replication active", slog.Int("factor", *replication))
	}
	tn.SetRoundOptions(tuner.RoundOptions{
		Quorum:       *quorum,
		StoreTimeout: *storeTTL,
		RoundTimeout: *roundTTL,
		MaxRetries:   *maxRetries,
		Backoff:      *backoff,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	if *faultSpec != "" {
		inj, err := faultinject.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		if inj != nil {
			ln = inj.Listener(ln)
			log.Warn("fault injection active", slog.String("spec", *faultSpec), slog.Int64("seed", inj.Seed()))
		}
	}
	log.Info("listening for PipeStores",
		slog.String("addr", ln.Addr().String()),
		slog.Int("expected", *stores))
	if err := tn.AcceptStores(ln, *stores); err != nil {
		fatal(err)
	}
	log.Info("fleet registered", slog.Int("stores", tn.NumStores()))

	start := time.Now()
	rep, err := tn.FineTune(*nrun, *batch, ftdmp.DefaultTrainOptions())
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	fmt.Printf("Feature extraction + training images: %d\n", rep.Images)
	fmt.Printf("Overall fine-tuning time (sec): %.2f\n", elapsed)
	fmt.Printf("Fine-tuning throughput (image/sec): %.2f\n", float64(rep.Images)/elapsed)
	fmt.Printf("Model delta: %d B (vs %d B full model, %.1fx reduction)\n",
		rep.DeltaBytes, rep.FullModelBytes, rep.TrafficReduction())
	fmt.Printf("Trace ID: %s\n", rep.Trace)
	if *compactKeep > 0 {
		if keepFrom := tn.ModelVersion() - *compactKeep; keepFrom > tn.Archive().Oldest() {
			if err := tn.CompactState(keepFrom); err != nil {
				log.Warn("state compaction failed", slog.Any("err", err))
			}
		}
	}
	if rep.Degraded {
		fmt.Printf("DEGRADED round: %d/%d stores survived (failed: %v), %d gathered images discarded\n",
			rep.Participants-len(rep.FailedStores), rep.Participants, rep.FailedStores, rep.ImagesLost)
	}
	if *replication > 0 {
		// One reconcile pass refills every replica a live store lacks
		// (a failed upload fan-out, a quarantined copy) and, when the round
		// lost stores, re-replicates their objects and retires them.
		rc, err := tn.Reconcile(0, rep.FailedStores...)
		if err != nil {
			log.Warn("reconcile failed", slog.Any("err", err))
		}
		if rc.Refilled > 0 || rc.Failed > 0 || len(rc.Retired) > 0 {
			fmt.Printf("RECONCILE: %d replicas refilled (%.1f MB), %d unfilled, retired %v (%d objects over %d stores, %.2fs)\n",
				rc.Refilled, float64(rc.Bytes)/1e6, rc.Failed, rc.Retired, rc.Objects, rc.Stores, rc.Wall.Seconds())
		}
	}

	start = time.Now()
	st, err := tn.OfflineInference(*batch)
	if err != nil {
		fatal(err)
	}
	elapsed = time.Since(start).Seconds()
	fmt.Printf("[NDPipe] offline inference: %d images relabeled in %.2fs (%.2f IPS)\n",
		st.Total, elapsed, float64(st.Total)/elapsed)
	fmt.Printf("[NDPipe] labels fixed by model v%d: %.2f%%\n", st.ModelVersion, 100*st.FixedFrac)
}

func fatal(err error) {
	slog.Error("tuner exiting", slog.Any("err", err))
	os.Exit(1)
}
