// Command asonode runs one snapshot-object node over real TCP. Start one
// process per node with the same -addrs list (peers may come up in any
// order — dialing retries with exponential backoff for -dial-timeout),
// then drive any node through its stdin REPL:
//
//	# shell 1                                  # shell 2, 3 ...
//	asonode -id 0 -addrs :7000,:7001,:7002     asonode -id 1 -addrs ...
//
//	> update hello          write to the own segment
//	> scan                  atomic snapshot of all segments
//	> stats                 service-layer counters
//	> quit
//
// All operations flow through the concurrent service layer (internal/svc):
// pending updates coalesce into one protocol update, concurrent scans
// share one protocol scan. With -clients ADDR the node also accepts any
// number of concurrent TCP client sessions speaking the same line
// protocol, all multiplexed onto this node's single protocol instance:
//
//	asonode -id 0 -addrs ... -clients :8000 &
//	nc localhost 8000
//
// With -http ADDR the node serves its observability surface: GET /metrics
// exports per-operation latency histograms (wall-clock µs) and message
// counters in Prometheus text format; GET /debug/trace streams the most
// recent operation/phase/message events as JSONL; /debug/pprof/ serves
// the standard Go profiling endpoints for profiling saturation runs.
//
// The transport relies on TCP's in-order delivery for the paper's FIFO
// channel assumption; the deployment is crash-stop (no reconnects).
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
	"mpsnap/internal/wal"
)

// walBatch is the fsync batch for -wal: foreign values may ride a batch;
// the protocol's durability points force explicit syncs regardless.
const walBatch = 8

func main() {
	cfg, err := parseNodeConfig(os.Args[1:], os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	// Observability: one Metrics (histograms in wall-clock µs, D = cfg.D)
	// plus one trace ring feed every event source — transport, protocol
	// node, service layer — and back the -http endpoints.
	var observer rt.Observer
	var metrics *obs.Metrics
	var trace *obs.Trace
	if cfg.HTTP != "" {
		metrics = obs.NewWallMetrics(cfg.D)
		trace = obs.NewTrace(cfg.TraceCap)
		observer = obs.Multi{metrics, trace}
	}

	tn, err := transport.NewTCPNode(transport.TCPConfig{
		ID: cfg.ID, Addrs: cfg.Addrs, F: cfg.F, D: cfg.D,
		DialTimeout: cfg.DialTimeout, Observer: observer,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tn.Close()

	// Crash-recovery: with -wal, replay the file's durable prefix (torn
	// tails are the normal shape of a crash) and rebuild the node from
	// it; new appends go to the same file, after the garbage tail replay
	// stopped at has been truncated away — appending behind it would make
	// every later record unreachable to the next replay, silently losing
	// durably-acted-on state on a second crash. AttachWAL/Recover must
	// happen before the handler is installed.
	var walW *wal.Writer
	var walSt *wal.State
	if cfg.WAL != "" {
		data, err := os.ReadFile(cfg.WAL)
		if err != nil && !os.IsNotExist(err) {
			log.Fatalf("wal: %v", err)
		}
		if len(data) > 0 {
			walSt = wal.Recover(data, cfg.N(), cfg.ID)
			if walSt.Intact < len(data) {
				if err := os.Truncate(cfg.WAL, int64(walSt.Intact)); err != nil {
					log.Fatalf("wal: truncate torn tail: %v", err)
				}
			}
			fmt.Printf("wal: replayed %d records from %s (frontier count=%d, tail: %v)\n",
				walSt.Records, cfg.WAL, walSt.Frontier.Count, walSt.TailErr)
		}
		f, err := os.OpenFile(cfg.WAL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("wal: %v", err)
		}
		defer f.Close()
		walW = wal.NewWriter(f, walBatch)
	}

	// Registry construction: the capability interfaces replace the old
	// per-algorithm switch. Config validation already guaranteed -wal is
	// only set for durable engines.
	in := engine.MustLookup(cfg.Engine)
	var nd engine.Engine
	var rejoin func()
	if walSt != nil {
		nd = in.Recover(tn.Runtime(), walSt, walW, cfg.GC)
		rejoin = nd.(engine.Rejoiner).Rejoin
	} else {
		nd = in.New(tn.Runtime())
		if walW != nil {
			nd.(engine.Durable).AttachWAL(walW, cfg.GC)
		}
	}
	if observer != nil {
		if o, ok := nd.(engine.Observable); ok {
			o.SetObserver(observer)
		}
	}
	tn.SetHandler(nd)
	if rejoin != nil {
		rejoin()
		fmt.Println("wal: rejoined the cluster from the recovered checkpoint")
	}

	service := svc.New(tn.Runtime(), nd, svc.Options{
		Mode:       svc.ModeFor(cfg.Engine),
		MaxPending: cfg.MaxPending,
		Observer:   observer,
	})
	go func() {
		if err := service.Serve(); err != nil {
			log.Printf("service stopped: %v", err)
		}
	}()
	defer service.Close()

	if cfg.HTTP != "" {
		ln, err := net.Listen("tcp", cfg.HTTP)
		if err != nil {
			log.Fatalf("http listener: %v", err)
		}
		defer ln.Close()
		go http.Serve(ln, obsMux(metrics, trace))
		fmt.Printf("metrics on http://%s/metrics, trace on http://%s/debug/trace, profiles on http://%s/debug/pprof/\n",
			ln.Addr(), ln.Addr(), ln.Addr())
	}

	if cfg.Clients != "" {
		ln, err := net.Listen("tcp", cfg.Clients)
		if err != nil {
			log.Fatalf("client listener: %v", err)
		}
		defer ln.Close()
		go acceptClients(ln, service)
		fmt.Printf("client sessions on %s\n", ln.Addr())
	}

	fmt.Printf("node %d/%d up (%s, f=%d, service mode %s); commands: update <value> | scan | stats | quit\n",
		cfg.ID, cfg.N(), cfg.Engine, cfg.F, svc.ModeFor(cfg.Engine))
	session(os.Stdin, os.Stdout, service, true)
}

// obsMux serves the node's observability endpoints, including the
// standard pprof surface so saturation runs (cmd/asoload against this
// node) can be profiled live:
//
//	go tool pprof http://HOST:PORT/debug/pprof/profile?seconds=10
//	go tool pprof http://HOST:PORT/debug/pprof/heap
func obsMux(metrics *obs.Metrics, trace *obs.Trace) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, metrics.Snapshot()); err != nil {
			log.Printf("/metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if err := trace.WriteJSONL(w); err != nil {
			log.Printf("/debug/trace: %v", err)
		}
	})
	return mux
}

// acceptClients serves each inbound connection as an independent client
// session; all sessions share the node's service (and thus its batches).
func acceptClients(ln net.Listener, s *svc.Service) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			defer conn.Close()
			fmt.Fprintln(conn, "commands: update <value> | scan | stats | quit")
			session(conn, conn, s, false)
		}()
	}
}

// session runs the line protocol until quit or EOF. The prompt is only
// printed on the interactive stdin session.
func session(in io.Reader, out io.Writer, s *svc.Service, prompt bool) {
	sc := bufio.NewScanner(in)
	for {
		if prompt {
			fmt.Fprint(out, "> ")
		}
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "update", "u":
			if len(fields) < 2 {
				fmt.Fprintln(out, "usage: update <value>")
				continue
			}
			start := time.Now()
			if err := s.Update([]byte(strings.Join(fields[1:], " "))); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "ok (%v)\n", time.Since(start).Round(time.Microsecond))
		case "scan", "s":
			start := time.Now()
			snap, err := s.Scan()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "snapshot (%v):\n", time.Since(start).Round(time.Microsecond))
			for seg, v := range snap {
				if v == nil {
					fmt.Fprintf(out, "  [%d] ⊥\n", seg)
				} else {
					fmt.Fprintf(out, "  [%d] %s\n", seg, v)
				}
			}
		case "stats":
			st := s.Stats()
			fmt.Fprintf(out, "updates=%d scans=%d protoUpdates=%d protoScans=%d maxBatch=%d rejected=%d queued=%d\n",
				st.Updates, st.Scans, st.ProtoUpdates, st.ProtoScans, st.MaxBatch, st.Rejected, s.QueueLen())
		case "quit", "q", "exit":
			return
		default:
			fmt.Fprintln(out, "commands: update <value> | scan | stats | quit")
		}
	}
}
