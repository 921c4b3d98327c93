package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/svc"
)

// nodeConfig is the parsed and validated command line of one asonode
// process.
type nodeConfig struct {
	ID    int
	Addrs []string
	F     int
	// Engine names the registered snapshot engine this node runs.
	Engine      string
	D           time.Duration
	DialTimeout time.Duration
	Clients     string
	MaxPending  int
	// HTTP, if non-empty, serves GET /metrics (Prometheus text format,
	// wall-clock µs latencies) and GET /debug/trace (recent events as
	// JSONL) on this address.
	HTTP string
	// TraceCap bounds the /debug/trace ring buffer.
	TraceCap int
	// WAL, if non-empty, persists the node's protocol state to this
	// file; if the file already holds a durable prefix the node recovers
	// from it and rejoins the cluster (durable engines only).
	WAL string
	// GC prunes the in-memory value log below the globally-vouched
	// checkpoint (requires WAL).
	GC bool
}

// N is the cluster size implied by the address list.
func (c nodeConfig) N() int { return len(c.Addrs) }

// parseNodeConfig parses the asonode command line. Usage and flag errors
// are written to out; validation errors are returned.
func parseNodeConfig(args []string, out io.Writer) (nodeConfig, error) {
	var cfg nodeConfig
	var addrs string
	fs := flag.NewFlagSet("asonode", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.IntVar(&cfg.ID, "id", 0, "this node's index into -addrs")
	fs.StringVar(&addrs, "addrs", "", "comma-separated listen addresses of all nodes")
	fs.IntVar(&cfg.F, "f", 0, "resilience bound (default: (n-1)/2, or (n-1)/3 for Byzantine engines)")
	fs.StringVar(&cfg.Engine, "engine", "eqaso", "engine: "+engine.FlagHelp())
	fs.DurationVar(&cfg.D, "d", 10*time.Millisecond, "wall-clock duration treated as one D (reporting only)")
	fs.DurationVar(&cfg.DialTimeout, "dial-timeout", 10*time.Second, "total per-peer connection budget at startup")
	fs.StringVar(&cfg.Clients, "clients", "", "optional listen address for concurrent TCP client sessions")
	fs.IntVar(&cfg.MaxPending, "max-pending", svc.DefaultMaxPending, "service queue bound (backpressure blocks past it)")
	fs.StringVar(&cfg.HTTP, "http", "", "optional listen address for /metrics and /debug/trace")
	fs.IntVar(&cfg.TraceCap, "trace-cap", 4096, "event capacity of the /debug/trace ring buffer")
	fs.StringVar(&cfg.WAL, "wal", "", "write-ahead log file for crash-recovery; recovers and rejoins if it already has content (durable engines)")
	fs.BoolVar(&cfg.GC, "gc", false, "with -wal: prune the value log below the globally-vouched checkpoint (governs WAL deployments only; without a WAL, eqaso always prunes)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if addrs != "" {
		cfg.Addrs = strings.Split(addrs, ",")
	}
	if len(cfg.Addrs) < 3 {
		return cfg, fmt.Errorf("need -addrs with at least 3 comma-separated addresses")
	}
	in, err := engine.Lookup(cfg.Engine)
	if err != nil {
		return cfg, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.N() {
		return cfg, fmt.Errorf("-id %d out of range for %d addresses", cfg.ID, cfg.N())
	}
	if cfg.F == 0 {
		if in.Byzantine {
			cfg.F = (cfg.N() - 1) / 3
		} else {
			cfg.F = (cfg.N() - 1) / 2
		}
	}
	if cfg.F < 0 {
		return cfg, fmt.Errorf("-f must be non-negative, got %d", cfg.F)
	}
	if err := in.Validate(cfg.N(), cfg.F); err != nil {
		return cfg, err
	}
	if cfg.D <= 0 {
		return cfg, fmt.Errorf("-d must be positive")
	}
	if cfg.TraceCap <= 0 {
		return cfg, fmt.Errorf("-trace-cap must be positive")
	}
	if cfg.WAL != "" && !in.Durable() {
		return cfg, fmt.Errorf("-wal needs a crash-recovery engine, and %q has no WAL support", cfg.Engine)
	}
	if cfg.GC && cfg.WAL == "" {
		return cfg, fmt.Errorf("-gc requires -wal (it governs WAL deployments only; without a WAL, eqaso always prunes)")
	}
	return cfg, nil
}
