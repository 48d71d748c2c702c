package flightdump

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ndpipe/internal/telemetry"
)

func TestDumpLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	reg.Flight().Record(telemetry.FlightRoundStart, "tuner", "", 1, 3)
	reg.Flight().Record(telemetry.FlightRoundCommit, "tuner", "", 1, 7)

	p, err := Dump(reg, "tuner", dir, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if p != Path(dir, "tuner") {
		t.Fatalf("dump path = %s", p)
	}
	rec, err := Load(dir, "tuner")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Component != "tuner" || rec.Reason != "manual" {
		t.Fatalf("header = %+v", rec)
	}
	// The two recorded events plus the dump marker itself.
	if len(rec.Events) != 3 || rec.Events[0].Kind != telemetry.FlightRoundStart ||
		rec.Events[2].Kind != telemetry.FlightDump {
		t.Fatalf("events = %+v", rec.Events)
	}
}

func TestDumpCreatesStateDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "state")
	reg := telemetry.NewRegistry()
	reg.Flight().Record(telemetry.FlightScrub, "ps", "wal", 1, 0)
	if _, err := Dump(reg, "ps", dir, "manual"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "ps"); err != nil {
		t.Fatal(err)
	}
}

func TestDumpWithoutStateDirErrors(t *testing.T) {
	if _, err := Dump(telemetry.NewRegistry(), "x", "", "manual"); err == nil {
		t.Fatal("dump without state dir succeeded")
	}
}

func TestRecoverDumpsAndRepanics(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	reg.Flight().Record(telemetry.FlightRoundAbort, "tuner", "gather", 2, 0)

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("Recover swallowed the panic")
			}
		}()
		defer Recover(reg, "tuner", dir)
		panic("round state corrupted")
	}()

	rec, err := Load(dir, "tuner")
	if err != nil {
		t.Fatalf("no dump after panic: %v", err)
	}
	if rec.Reason != "panic" {
		t.Fatalf("reason = %s, want panic", rec.Reason)
	}
	if rec.Events[0].Kind != telemetry.FlightRoundAbort {
		t.Fatalf("events = %+v", rec.Events)
	}
}

// A SIGQUIT-killed daemon must leave a replayable flight dump in its state
// dir (the crash-black-box acceptance path). The signal handler re-raises,
// so this runs in a child process.
func TestSignalDumpOnSIGQUIT(t *testing.T) {
	if os.Getenv("FLIGHTDUMP_CHILD") == "1" {
		dir := os.Getenv("FLIGHTDUMP_DIR")
		reg := telemetry.NewRegistry()
		reg.Flight().Record(telemetry.FlightRoundStart, "child", "", 9, 1)
		defer InstallSignal(reg, "child", dir)()
		if err := raiseQuit(); err != nil {
			t.Fatalf("raise: %v", err)
		}
		select {} // the handler dumps and re-raises; we never get here
	}
	if !signalSupported() {
		t.Skip("no SIGQUIT on this platform")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestSignalDumpOnSIGQUIT")
	cmd.Env = append(os.Environ(), "FLIGHTDUMP_CHILD=1", "FLIGHTDUMP_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived SIGQUIT: %s", out)
	}
	if !strings.Contains(string(out), "SIGQUIT") && !strings.Contains(string(out), "quit") {
		t.Logf("child output: %s", out)
	}
	rec, err := Load(dir, "child")
	if err != nil {
		t.Fatalf("no dump after SIGQUIT: %v (child: %s)", err, out)
	}
	if rec.Reason != "sigquit" || rec.Events[0].V1 != 9 {
		t.Fatalf("dump = %+v", rec)
	}
}
