// Package faultinject is a deterministic network-fault layer for chaos
// testing the NDPipe fleet. An Injector wraps net.Conn / net.Listener and
// perturbs the byte stream according to a seeded, schedulable rule set:
// dropping the connection after the N-th operation, delaying operations
// with jitter, corrupting frames, or blackholing a direction entirely
// (writes vanish, reads hang — the silent partition a heartbeat must
// catch). Rules fire either at a fixed operation count (one-shot) or
// probabilistically per operation; all randomness flows from one seeded
// generator, so a fault schedule replays identically run after run.
//
// The same layer serves both in-process tests (wrap one end of a
// net.Pipe or a dialed TCP conn) and end-to-end chaos runs: the daemons
// accept a -fault-spec flag parsed by Parse, e.g.
//
//	pipestore -fault-spec 'seed=7;drop:write,after=40'
//	tuner     -fault-spec 'seed=7;delay:prob=0.05,ms=20,jitter=10'
//
// An operation is one Read or Write call on the wrapped conn. The wire
// codec sends every message as one frame in exactly one Write (pinned by
// wire.TestOneSendOneWrite), so write faults are keyed on message
// boundaries: "drop:write,after=N" kills the connection under the N-th
// message a node sends — its hello is the first — and "corrupt:write,after=N"
// flips a byte of exactly that message's frame. Reads are buffered and do
// not line up with messages.
package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"ndpipe/internal/telemetry"
)

// Op selects which conn operations a rule applies to.
type Op uint8

// Operation directions.
const (
	OpRead  Op = 1 << iota // fault Read calls
	OpWrite                // fault Write calls
	OpBoth  = OpRead | OpWrite
)

// Kind is the fault a rule injects.
type Kind uint8

// Fault kinds.
const (
	// Drop closes the connection at the triggering operation; the op (and
	// everything after it) fails with a "connection dropped" error.
	Drop Kind = iota + 1
	// Delay sleeps Delay ± uniform Jitter before the operation proceeds.
	Delay
	// Corrupt flips one byte of the frame (seeded position) — writes are
	// corrupted before hitting the wire, reads after leaving it — which the
	// receiving wire.Codec rejects with wire.ErrChecksum before decoding
	// anything, and drops the connection.
	Corrupt
	// Blackhole partitions the direction: writes report success without
	// transmitting and reads block until the conn is closed. The peer sees
	// pure silence, not a reset.
	Blackhole
	// BlackholeIn silences only the inbound half: reads block until the
	// conn is closed while writes keep flowing. The wrapped side keeps
	// talking into the void — the asymmetric partition that makes a peer
	// look alive to us while we look dead to it.
	BlackholeIn
	// BlackholeOut silences only the outbound half: writes report success
	// without transmitting while reads keep flowing. Heartbeats from the
	// peer still arrive; our acks never leave.
	BlackholeOut
	// Partition stalls both directions for Delay (ms=N in the spec), then
	// heals: operations block — interruptibly — until the healing time and
	// then proceed with the stream intact, like a TCP conn riding out a
	// transient network split on retransmissions. The peer sees silence
	// for the window, so lease/heartbeat timeouts shorter than it fire.
	Partition
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	case Blackhole:
		return "blackhole"
	case BlackholeIn:
		return "blackhole-in"
	case BlackholeOut:
		return "blackhole-out"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rule schedules one fault. The zero Op means OpBoth. With After > 0 and
// Prob == 0 the rule fires exactly at the After-th matching operation
// (one-shot). With Prob > 0 it fires each matching operation with that
// probability, becoming eligible only after the After-th op; set Once to
// fire at most one time. Drop and Blackhole are terminal for the conn and
// are implicitly one-shot.
type Rule struct {
	Kind   Kind
	Op     Op
	After  int           // operation count threshold (1-based; 0 = every op eligible)
	Prob   float64       // per-op probability (0 = deterministic at After)
	Once   bool          // fire at most once even when probabilistic
	Delay  time.Duration // Delay kind: base sleep
	Jitter time.Duration // Delay kind: uniform extra sleep in [0, Jitter)
}

func (r Rule) validate() error {
	switch r.Kind {
	case Drop, Delay, Corrupt, Blackhole, BlackholeIn, BlackholeOut, Partition:
	default:
		return fmt.Errorf("faultinject: rule has no kind")
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("faultinject: probability %v outside [0,1]", r.Prob)
	}
	if r.After < 0 {
		return fmt.Errorf("faultinject: negative after=%d", r.After)
	}
	if r.After == 0 && r.Prob == 0 {
		// A deterministic rule with no threshold would fire on op 1;
		// make that explicit rather than accidental.
		return fmt.Errorf("faultinject: %s rule needs after=N or prob=P", r.Kind)
	}
	if r.Kind == Delay && r.Delay <= 0 && r.Jitter <= 0 {
		return fmt.Errorf("faultinject: delay rule needs ms or jitter")
	}
	if r.Kind == Partition && r.Delay <= 0 {
		return fmt.Errorf("faultinject: partition rule needs ms=N (healing time)")
	}
	return nil
}

// Injector owns a seeded fault schedule and wraps conns/listeners with it.
// Each wrapped conn gets independent per-rule operation counters (so every
// store accepted through one listener sees the same schedule), while all
// randomness is drawn from the injector's single seeded source — the whole
// chaos run replays deterministically for a fixed seed and op order.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	seed  int64

	fired *telemetry.Counter
}

// New builds an injector with the given seed and schedule. Seed 0 is
// replaced by 1 so the zero value is still deterministic.
func New(seed int64, rules ...Rule) (*Injector, error) {
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
	}
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: rules,
		seed:  seed,
		fired: telemetry.Default.Counter("faultinject_fired_total"),
	}, nil
}

// Seed returns the injector's seed (for logging chaos runs).
func (in *Injector) Seed() int64 { return in.seed }

// float64 draws from the shared seeded source.
func (in *Injector) float64() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// intn draws from the shared seeded source.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Parse builds an injector from a -fault-spec string: semicolon-separated
// clauses, each `kind:param,param,...` with an optional standalone
// `seed=N` clause. Parameters: after=N, prob=P, ms=N, jitter=N (ms),
// read / write / both, once.
//
//	seed=42;drop:write,after=40
//	delay:prob=0.1,ms=15,jitter=5;corrupt:after=100,once
//
// An empty spec returns (nil, nil): no injection.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var (
		seed  int64
		rules []Rule
	)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %w", v, err)
			}
			seed = n
			continue
		}
		kindStr, params, _ := strings.Cut(clause, ":")
		var r Rule
		switch kindStr {
		case "drop":
			r.Kind = Drop
		case "delay":
			r.Kind = Delay
		case "corrupt":
			r.Kind = Corrupt
		case "blackhole":
			r.Kind = Blackhole
		case "blackhole-in":
			r.Kind = BlackholeIn
		case "blackhole-out":
			r.Kind = BlackholeOut
		case "partition":
			r.Kind = Partition
		default:
			return nil, fmt.Errorf("faultinject: unknown fault %q (want drop|delay|corrupt|blackhole|blackhole-in|blackhole-out|partition)", kindStr)
		}
		for _, p := range strings.Split(params, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			key, val, hasVal := strings.Cut(p, "=")
			var err error
			switch {
			case key == "read" && !hasVal:
				r.Op |= OpRead
			case key == "write" && !hasVal:
				r.Op |= OpWrite
			case key == "both" && !hasVal:
				r.Op = OpBoth
			case key == "once" && !hasVal:
				r.Once = true
			case key == "after":
				r.After, err = strconv.Atoi(val)
			case key == "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
			case key == "ms":
				var ms int
				ms, err = strconv.Atoi(val)
				r.Delay = time.Duration(ms) * time.Millisecond
			case key == "jitter":
				var ms int
				ms, err = strconv.Atoi(val)
				r.Jitter = time.Duration(ms) * time.Millisecond
			default:
				return nil, fmt.Errorf("faultinject: unknown parameter %q in %q", p, clause)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad parameter %q: %w", p, err)
			}
		}
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%w (clause %q)", err, clause)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q has no fault clauses", spec)
	}
	return New(seed, rules...)
}

// ruleState is one conn's progress through one rule.
type ruleState struct {
	rule  Rule
	ops   int
	spent bool
}

// Conn wraps c with the injector's schedule. Counters start at zero for
// every wrapped conn; randomness stays shared (and seeded).
func (in *Injector) Conn(c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	fc := &faultConn{Conn: c, in: in, closed: make(chan struct{})}
	fc.states = make([]ruleState, len(in.rules))
	for i, r := range in.rules {
		fc.states[i] = ruleState{rule: r}
	}
	return fc
}

// Listener wraps ln so every accepted conn carries the schedule.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	if in == nil {
		return ln
	}
	return &faultListener{Listener: ln, in: in}
}

type faultListener struct {
	net.Listener
	in *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(c), nil
}

// faultConn applies the schedule to one conn.
type faultConn struct {
	net.Conn
	in *Injector

	mu      sync.Mutex
	states  []ruleState
	dropped bool
	bhIn    bool      // inbound silenced (reads hang)
	bhOut   bool      // outbound silenced (writes vanish)
	healAt  time.Time // partition in effect until this instant

	closeOnce sync.Once
	closed    chan struct{}
}

// errDropped is returned for every op after a Drop rule fires.
type droppedError struct{}

func (droppedError) Error() string   { return "faultinject: connection dropped" }
func (droppedError) Timeout() bool   { return false }
func (droppedError) Temporary() bool { return false }

// verdict is one operation's fate under the schedule.
type verdict struct {
	drop    bool
	silence bool // permanent for this direction (blackhole kinds)
	corrupt bool
	delay   time.Duration
	healAt  time.Time // partition: stall until here, then proceed
}

// decide runs the schedule for one operation and returns the actions to
// apply (at most one per rule). It owns all counter state.
func (c *faultConn) decide(op Op) (v verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped {
		v.drop = true
		return
	}
	for i := range c.states {
		st := &c.states[i]
		if st.rule.Op != 0 && st.rule.Op&op == 0 {
			continue
		}
		st.ops++
		if st.spent || st.ops < st.rule.After {
			continue
		}
		fire := false
		if st.rule.Prob > 0 {
			fire = c.in.float64() < st.rule.Prob
		} else {
			fire = st.ops == st.rule.After
		}
		if !fire {
			continue
		}
		if st.rule.Once || st.rule.Prob == 0 {
			st.spent = true
		}
		c.in.fired.Inc()
		switch st.rule.Kind {
		case Drop:
			c.dropped = true
			v.drop = true
		case Blackhole:
			c.bhIn, c.bhOut = true, true
		case BlackholeIn:
			c.bhIn = true
		case BlackholeOut:
			c.bhOut = true
		case Partition:
			if heal := time.Now().Add(st.rule.Delay); heal.After(c.healAt) {
				c.healAt = heal
			}
		case Corrupt:
			v.corrupt = true
		case Delay:
			d := st.rule.Delay
			if st.rule.Jitter > 0 {
				d += time.Duration(c.in.float64() * float64(st.rule.Jitter))
			}
			v.delay += d
		}
	}
	if (op == OpRead && c.bhIn) || (op == OpWrite && c.bhOut) {
		v.silence = true
	}
	if !c.healAt.IsZero() && time.Now().Before(c.healAt) {
		v.healAt = c.healAt
	}
	return
}

func (c *faultConn) Read(b []byte) (int, error) {
	v := c.decide(OpRead)
	if v.delay > 0 {
		c.sleep(v.delay)
	}
	if v.drop {
		_ = c.Close()
		return 0, droppedError{}
	}
	if v.silence {
		// Silence: hold the read until the conn is torn down.
		<-c.closed
		return 0, droppedError{}
	}
	if !v.healAt.IsZero() {
		// Partitioned: stall until the split heals, then read normally —
		// the stream survives intact, as TCP retransmission would leave it.
		c.sleep(time.Until(v.healAt))
	}
	n, err := c.Conn.Read(b)
	if v.corrupt && n > 0 {
		b[c.in.intn(n)] ^= 0xFF
	}
	return n, err
}

func (c *faultConn) Write(b []byte) (int, error) {
	v := c.decide(OpWrite)
	if v.delay > 0 {
		c.sleep(v.delay)
	}
	if v.drop {
		_ = c.Close()
		return 0, droppedError{}
	}
	if v.silence {
		// The bytes vanish; the sender believes they left.
		return len(b), nil
	}
	if !v.healAt.IsZero() {
		c.sleep(time.Until(v.healAt))
	}
	if v.corrupt && len(b) > 0 {
		cp := append([]byte(nil), b...)
		cp[c.in.intn(len(cp))] ^= 0xFF
		b = cp
	}
	return c.Conn.Write(b)
}

// sleep waits for d but wakes early if the conn closes underneath.
func (c *faultConn) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closed:
	}
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
