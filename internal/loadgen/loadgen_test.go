package loadgen

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	_ "mpsnap/internal/engine/all"
)

// TestClosedLoopSmoke: a short closed-loop run on the tuned stack
// completes operations without errors and reports coherent numbers.
func TestClosedLoopSmoke(t *testing.T) {
	res, err := Run(Config{
		Engine: "fastsnap", N: 3, F: 1, Clients: 16,
		Duration: 400 * time.Millisecond, Warmup: 100 * time.Millisecond,
		ScanPct: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if res.Errors != 0 {
		t.Fatalf("%d operation errors", res.Errors)
	}
	if res.Path != "tuned" {
		t.Errorf("Path = %q, want tuned", res.Path)
	}
	if res.OpsPerSec <= 0 {
		t.Errorf("OpsPerSec = %g", res.OpsPerSec)
	}
	if res.Update.Count+res.Scan.Count != uint64(res.Ops) {
		t.Errorf("histogram counts %d+%d != ops %d", res.Update.Count, res.Scan.Count, res.Ops)
	}
	if res.SvcUpdates == 0 || res.SvcProtoUpdates == 0 {
		t.Errorf("svc counters empty: updates=%d proto=%d", res.SvcUpdates, res.SvcProtoUpdates)
	}
}

// TestOpenLoopLegacySmoke: the open-loop scheduler and the legacy path
// both function end to end (zipf-skewed keys included).
func TestOpenLoopLegacySmoke(t *testing.T) {
	res, err := Run(Config{
		Engine: "eqaso", N: 3, F: 1, Clients: 8,
		Duration: 400 * time.Millisecond, Warmup: 100 * time.Millisecond,
		Rate: 2000, ZipfS: 1.2, Legacy: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if res.Errors != 0 {
		t.Fatalf("%d operation errors", res.Errors)
	}
	if res.Path != "legacy" {
		t.Errorf("Path = %q, want legacy", res.Path)
	}
	// Legacy keeps the unbounded drain: the window must report 0 and
	// never resize.
	if res.SvcWindow != 0 || res.SvcWindowGrows != 0 {
		t.Errorf("legacy run resized the window: window=%d grows=%d", res.SvcWindow, res.SvcWindowGrows)
	}
}

// TestUnknownEngine: a bad engine name fails fast, before any socket is
// bound.
func TestUnknownEngine(t *testing.T) {
	if _, err := Run(Config{Engine: "no-such-engine"}); err == nil {
		t.Fatal("want error for unknown engine")
	}
}

// TestOpenLoopReproducible: two open-loop runs with the same seed issue
// the same op sequence from every session, whatever the scheduling: each
// op is drawn from the session's seeded rng, and the schedule of due
// times ends at the deadline rather than at the wall-clock moment the
// session notices it.
func TestOpenLoopReproducible(t *testing.T) {
	const clients = 4
	run := func() [][]string {
		seqs := make([][]string, clients) // seqs[c] is written by session c only
		cfg := Config{
			Engine: "acr", N: 3, F: 1, Clients: clients,
			Duration: 200 * time.Millisecond, Warmup: 50 * time.Millisecond,
			Rate: 2000, ZipfS: 1.2, ScanPct: 30, Seed: 11,
		}
		cfg.issued = func(c, node int, scan bool) {
			seqs[c] = append(seqs[c], fmt.Sprintf("%d/%v", node, scan))
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d operation errors", res.Errors)
		}
		return seqs
	}
	a, b := run(), run()
	for c := range a {
		if len(a[c]) == 0 {
			t.Fatalf("session %d issued no ops", c)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different op sequences:\n%v\n%v", a, b)
	}
}
