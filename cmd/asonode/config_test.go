package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
)

func TestParseNodeConfig(t *testing.T) {
	addrs := "-addrs=:7000,:7001,:7002,:7003,:7004"
	cases := []struct {
		name    string
		args    []string
		wantErr string
		check   func(t *testing.T, c nodeConfig)
	}{
		{
			name: "defaults",
			args: []string{addrs},
			check: func(t *testing.T, c nodeConfig) {
				if c.N() != 5 || c.F != 2 {
					t.Errorf("n=%d f=%d, want 5/2", c.N(), c.F)
				}
				if c.Engine != "eqaso" || c.D != 10*time.Millisecond {
					t.Errorf("engine=%q d=%v", c.Engine, c.D)
				}
				if c.HTTP != "" || c.TraceCap != 4096 {
					t.Errorf("http=%q traceCap=%d", c.HTTP, c.TraceCap)
				}
			},
		},
		{
			name: "byzaso default f",
			args: []string{addrs, "-addrs=:1,:2,:3,:4,:5,:6,:7", "-engine", "byzaso"},
			check: func(t *testing.T, c nodeConfig) {
				if c.Engine != "byzaso" || c.F != 2 {
					t.Errorf("engine=%q f=%d, want byzaso/(7-1)/3=2", c.Engine, c.F)
				}
			},
		},
		{
			name: "engine flag selects any registered engine",
			args: []string{addrs, "-engine", "fastsnap"},
			check: func(t *testing.T, c nodeConfig) {
				if c.Engine != "fastsnap" || c.F != 2 {
					t.Errorf("engine=%q f=%d, want fastsnap/2", c.Engine, c.F)
				}
			},
		},
		{
			name: "explicit flags",
			args: []string{addrs, "-id", "3", "-f", "1", "-http", ":9090", "-trace-cap", "64", "-d", "5ms"},
			check: func(t *testing.T, c nodeConfig) {
				if c.ID != 3 || c.F != 1 || c.HTTP != ":9090" || c.TraceCap != 64 || c.D != 5*time.Millisecond {
					t.Errorf("got %+v", c)
				}
			},
		},
		{name: "no addrs", args: nil, wantErr: "at least 3"},
		{name: "two addrs", args: []string{"-addrs=:1,:2"}, wantErr: "at least 3"},
		{name: "bad alg", args: []string{addrs, "-alg", "eqaso"}, wantErr: "flag provided but not defined: -alg"},
		{name: "bad engine", args: []string{addrs, "-engine", "raft"}, wantErr: "unknown engine"},
		{name: "id out of range", args: []string{addrs, "-id", "5"}, wantErr: "out of range"},
		{name: "f too big", args: []string{addrs, "-f", "2", "-addrs=:1,:2,:3"}, wantErr: "n > 2f"},
		{name: "byzaso f too big", args: []string{addrs, "-engine", "byzaso", "-f", "2"}, wantErr: "n > 3f"},
		{name: "wal needs durability", args: []string{addrs, "-engine", "fastsnap", "-wal", "x.wal"}, wantErr: "no WAL support"},
		{name: "bad trace cap", args: []string{addrs, "-trace-cap", "0"}, wantErr: "-trace-cap"},
		{name: "bad flag", args: []string{"-nope"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseNodeConfig(tc.args, io.Discard)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err=%v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, c)
		})
	}
}

// TestObsMux drives the /metrics and /debug/trace handlers directly.
func TestObsMux(t *testing.T) {
	metrics := obs.NewWallMetrics(10 * time.Millisecond)
	trace := obs.NewTrace(16)
	for _, o := range []rt.Observer{metrics, trace} {
		o.OnOp(rt.OpEvent{T: 5, Node: 0, ID: 1, Op: "update", Phase: rt.PhaseEnd, Dur: 2000})
		o.OnMsg(rt.MsgEvent{T: 5, Event: rt.MsgSend, Src: 0, Dst: 1, Kind: "value"})
	}
	mux := obsMux(metrics, trace)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "mpsnap_op_latency_us_count") {
		t.Errorf("/metrics missing latency count:\n%s", body)
	}
	if !strings.Contains(body, "mpsnap_messages_total") {
		t.Errorf("/metrics missing message counter:\n%s", body)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("/debug/trace: got %d lines, want 2:\n%s", len(lines), rec.Body.String())
	}
	if !strings.Contains(lines[0], `"op":"update"`) {
		t.Errorf("trace line missing op event: %s", lines[0])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ index: code %d body:\n%.200s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/heap?debug=1", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/heap: code %d", rec.Code)
	}
}
