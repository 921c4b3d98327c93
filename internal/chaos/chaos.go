package chaos

import (
	"fmt"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/history"
	"mpsnap/internal/monitor"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/wal"
)

// Config parameterizes one chaos run.
type Config struct {
	// N nodes with resilience bound F (n > 2f; n > 3f for Byzantine
	// engines).
	N, F int
	// Engine selects the snapshot engine by registry name ("eqaso",
	// "byzaso", "sso", "acr", "fastsnap", ...; default "eqaso").
	Engine string
	// Seed drives schedule generation, fault randomness, and the
	// workload. On the sim backend the entire run is a deterministic
	// function of the seed.
	Seed int64
	// Duration is the workload length in virtual ticks (rt.TicksPerD
	// ticks per D). Clients stop invoking new operations past it.
	Duration rt.Ticks
	// Mix is the fault mix; zero value means DefaultMix.
	Mix Mix
	// Churn switches the run to the churn schedule (GenerateChurn):
	// sustained rolling crash→restart cycles over the WAL recovery path
	// (durable engines; flap-only otherwise), single-node membership
	// flaps, lagging-node delay windows, and a bursty hot-segment /
	// scan-storm workload. Mix is ignored, and the streaming invariant
	// monitor is armed automatically. Not compatible with Service.
	Churn bool
	// ChurnMix tunes the churn schedule; zero fields take defaults.
	ChurnMix ChurnMix
	// Monitor arms the streaming invariant monitor (internal/monitor): it
	// consumes operations as they complete and checks validity, scan
	// containment, base comparability, frontier non-regression, prefix
	// closure, and per-client self-inclusion on a sliding window. On the
	// first violation it dumps its window transcript (and the obs trace,
	// when TraceDir is armed) for post-mortem. Implied by Churn.
	Monitor bool
	// MonitorWindow overrides the monitor's sliding window in ticks
	// (default monitor.DefaultWindow; negative means unbounded).
	MonitorWindow rt.Ticks
	// ScanRatio is the fraction of scans in the workload (default 0.5).
	ScanRatio float64
	// MaxSleep is the maximum client think time between operations, in
	// ticks (default 1.5·D).
	MaxSleep rt.Ticks
	// Service routes all client operations through the internal/svc
	// concurrent service layer (UPDATE coalescing + SCAN sharing)
	// instead of calling the object directly. Sim backend only.
	Service bool
	// Clients is the number of concurrent client threads per node
	// (default 1). Values above 1 require Service: the raw protocol
	// objects admit one operation at a time.
	Clients int
	// TraceDir, if non-empty, arms the observability trace (sim backend):
	// the run records operation lifecycles, protocol phases, and
	// fault-injection events into a ring buffer, and dumps them as JSONL
	// into this directory when the consistency check fails (always, with
	// TraceAlways). Result.TracePath names the dump. The dump is a
	// deterministic function of the seed, so a failing nightly run can be
	// replayed and diffed byte-for-byte.
	TraceDir string
	// TraceCap bounds the trace ring buffer (default 8192 events; oldest
	// events are evicted first).
	TraceCap int
	// TraceAlways dumps the trace even when the check passes.
	TraceAlways bool
	// forceCheckFail (test hook) overrides the checker verdict to
	// exercise the failure path: correct algorithms never fail the check,
	// so the dump-on-failure plumbing needs a forced failure to be
	// testable.
	forceCheckFail bool
	// monitorCorrupt (test hook) corrupts one scan completion on its way
	// to the monitor — blanks a segment whose writer completed an update
	// before the scan was invoked, a containment violation the monitor
	// must flag. The recorded history itself stays intact; only the
	// monitor's view lies, so the dump-on-violation plumbing is testable
	// against engines that never misbehave.
	monitorCorrupt bool

	// info is the resolved registry entry, filled by normalize.
	info engine.Info
}

func (cfg *Config) normalize() error {
	if cfg.Engine == "" {
		cfg.Engine = "eqaso"
	}
	in, err := engine.Lookup(cfg.Engine)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	cfg.info = in
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix()
	}
	if cfg.ScanRatio == 0 {
		cfg.ScanRatio = 0.5
	}
	if cfg.MaxSleep == 0 {
		cfg.MaxSleep = 3 * rt.TicksPerD / 2
	}
	if cfg.Clients == 0 {
		cfg.Clients = 1
	}
	if cfg.Clients < 0 {
		return fmt.Errorf("chaos: Clients must be positive, got %d", cfg.Clients)
	}
	if cfg.Clients > 1 && !cfg.Service {
		return fmt.Errorf("chaos: Clients=%d needs Service (raw objects admit one operation at a time)", cfg.Clients)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("chaos: Duration must be positive")
	}
	if err := in.Validate(cfg.N, cfg.F); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if cfg.Mix.Restarts > 0 {
		if !in.Durable() {
			return fmt.Errorf("chaos: restarts need a WAL-capable engine (%s), not %q", durableNames(), cfg.Engine)
		}
		if cfg.Service {
			return fmt.Errorf("chaos: restarts drive direct clients; Service mode is not supported")
		}
	}
	if cfg.Churn {
		if cfg.Service {
			return fmt.Errorf("chaos: churn drives direct clients; Service mode is not supported")
		}
		cfg.Monitor = true
	}
	if cfg.monitorCorrupt && !cfg.Monitor {
		return fmt.Errorf("chaos: monitorCorrupt needs the monitor armed")
	}
	return nil
}

// schedule generates the run's fault schedule: churn when armed, the Mix
// schedule otherwise. Churn restarts ride the rolling-restart lane only
// when the engine can recover from a WAL; other engines get flap-only
// churn.
func (cfg *Config) schedule() Schedule {
	if cfg.Churn {
		return GenerateChurn(cfg.Seed, cfg.N, cfg.F, cfg.Duration, cfg.ChurnMix, cfg.info.Durable())
	}
	return Generate(cfg.Seed, cfg.N, cfg.F, cfg.Duration, cfg.Mix)
}

// durableNames lists the registered engines that can recover from a WAL.
func durableNames() string {
	out := ""
	for _, name := range engine.Names() {
		if engine.MustLookup(name).Durable() {
			if out != "" {
				out += " or "
			}
			out += name
		}
	}
	return out
}

// newNode constructs the engine node for one runtime.
func (cfg *Config) newNode(r rt.Runtime) (rt.Handler, engine.Object) {
	e := cfg.info.New(r)
	return e, e
}

// recoverNode rebuilds the engine node of a restarted process from its
// replayed WAL (GC stays enabled — recovery under pruning is the point).
// normalize already guaranteed the engine is durable, and durable engines
// rejoin after recovery.
func (cfg *Config) recoverNode(r rt.Runtime, st *wal.State, w *wal.Writer) (rt.Handler, engine.Object, engine.Rejoiner) {
	e := cfg.info.Recover(r, st, w, true)
	return e, e, e.(engine.Rejoiner)
}

// checker returns the consistency check for the engine: linearizability
// for the atomic objects, sequential consistency for the SSO family.
func (cfg *Config) checker() func(*history.History) *history.Report {
	if cfg.info.Sequential {
		return (*history.History).CheckSequentiallyConsistent
	}
	return (*history.History).CheckLinearizable
}

// Result is the outcome of one chaos run.
type Result struct {
	// Schedule is the fault schedule that was injected.
	Schedule Schedule
	// Hist is the recorded operation history (pending operations mark
	// crashed or force-aborted clients).
	Hist *history.History
	// Check is the consistency verdict: linearizability for the atomic
	// engines, sequential consistency for the SSO family.
	Check *history.Report
	// Blocked lists operations that were still stuck at the end of the
	// run (their nodes were crash-aborted so the run could terminate);
	// each entry names the node and the blocked wait predicate.
	Blocked []string
	// Stats holds simulator counters (sim backend only).
	Stats *sim.Stats
	// NetDrops / NetHeld count messages dropped and parked by the
	// transport fault injector (transport backends only).
	NetDrops, NetHeld int64
	// NetCorrupt counts messages hit by a wire-corruption window
	// (transport backends only; the sim counts these in Stats).
	NetCorrupt int64
	// TracePath is the JSONL trace dump written for this run ("" when
	// tracing was off or the run passed without TraceAlways).
	TracePath string
	// TraceDropped counts trace events evicted by ring wraparound (the
	// dump holds the most recent TraceCap events).
	TraceDropped uint64
	// MonitorStats summarizes the streaming invariant monitor (nil when
	// the monitor was off); MonitorViolations lists its findings.
	MonitorStats      *monitor.Stats
	MonitorViolations []string
	// MonitorPath / MonitorTracePath name the first-violation dumps: the
	// monitor's window transcript JSON and the obs trace ring captured at
	// the moment of the violation ("" when no violation or no TraceDir).
	MonitorPath      string
	MonitorTracePath string
}

// graceTicks is how long past the workload deadline an in-flight
// operation may take before it is considered stuck: generous against the
// worst measured op latencies (≤ ~10D) plus spike delays.
const graceTicks = 30 * rt.TicksPerD
