package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pixel"
	"pixel/internal/fleet"
	"pixel/internal/jobs"
	"pixel/internal/server"
)

// TestParseFlags pins the flag → role-config path of both roles: which
// config each command line yields, and which command lines are refused
// before anything starts.
func TestParseFlags(t *testing.T) {
	defaults := jobs.RegistryOptions{MaxJobs: jobs.DefaultMaxJobs, MaxRunning: jobs.DefaultMaxRunning, TTL: jobs.DefaultTTL}
	cases := []struct {
		name    string
		args    []string
		worker  *server.Config // want, worker role
		engine  pixel.EngineOptions
		coord   *fleet.Options // want, coordinator role
		wantErr string
	}{
		{
			name: "worker defaults",
			worker: &server.Config{
				MaxInFlight: server.DefaultMaxInFlight, QueueTimeout: server.DefaultQueueTimeout,
				RequestTimeout: 30 * time.Second, MaxTrials: 4096, BatchSize: server.DefaultBatchSize,
				Jobs: &defaults,
			},
		},
		{
			name: "worker flags",
			args: []string{"-workers", "3", "-cache-size", "64", "-max-trials", "9", "-batch-size", "0",
				"-max-running-jobs", "5", "-job-ttl", "1m", "-request-timeout", "2s"},
			worker: &server.Config{
				MaxInFlight: server.DefaultMaxInFlight, QueueTimeout: server.DefaultQueueTimeout,
				RequestTimeout: 2 * time.Second, MaxTrials: 9, BatchSize: 0,
				Jobs: &jobs.RegistryOptions{MaxJobs: jobs.DefaultMaxJobs, MaxRunning: 5, TTL: time.Minute},
			},
			engine: pixel.EngineOptions{Workers: 3, CacheSize: 64},
		},
		{
			name: "coordinator",
			args: []string{"-coordinator", " a:1, ,b:2 ", "-max-trials", "262144", "-max-jobs", "7",
				"-request-timeout", "5s", "-pprof-addr", "127.0.0.1:0", "-drain", "0"},
			coord: &fleet.Options{
				Workers:        []string{"a:1", "b:2"},
				RequestTimeout: 5 * time.Second, MaxTrials: 262144,
				Jobs: jobs.RegistryOptions{MaxJobs: 7, MaxRunning: jobs.DefaultMaxRunning, TTL: jobs.DefaultTTL},
			},
		},
		{name: "coordinator batch-size", args: []string{"-coordinator", "a:1", "-batch-size", "8"}, wantErr: "-batch-size is a worker flag"},
		{name: "coordinator cache-size", args: []string{"-coordinator", "a:1", "-cache-size", "0"}, wantErr: "-cache-size is a worker flag"},
		{name: "coordinator workers", args: []string{"-coordinator", "a:1", "-workers", "2"}, wantErr: "-workers is a worker flag"},
		{name: "coordinator max-inflight", args: []string{"-coordinator", "a:1", "-max-inflight", "2"}, wantErr: "-max-inflight is a worker flag"},
		{name: "coordinator queue-timeout", args: []string{"-coordinator", "a:1", "-queue-timeout", "1s"}, wantErr: "-queue-timeout is a worker flag"},
		{name: "negative count", args: []string{"-max-trials", "-1"}, wantErr: "-max-trials -1: must not be negative"},
		{name: "negative duration", args: []string{"-job-ttl", "-1s"}, wantErr: "-job-ttl -1s: must not be negative"},
		{name: "negative on coordinator", args: []string{"-coordinator", "a:1", "-max-running-jobs", "-2"}, wantErr: "-max-running-jobs -2: must not be negative"},
		{name: "negative drain", args: []string{"-drain", "-5s"}, wantErr: "-drain -5s: must not be negative"},
		{name: "unknown flag", args: []string{"-nope"}, wantErr: "flag provided but not defined"},
		{name: "removed batch-window", args: []string{"-batch-window", "2ms"}, wantErr: "flag provided but not defined: -batch-window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseFlags(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.coord != nil {
				if c.coord == nil {
					t.Fatal("coordinator flags built a worker config")
				}
				if !reflect.DeepEqual(*c.coord, *tc.coord) {
					t.Errorf("coordinator config = %+v, want %+v", *c.coord, *tc.coord)
				}
				return
			}
			if c.coord != nil {
				t.Fatalf("worker flags built a coordinator config %+v", *c.coord)
			}
			if !reflect.DeepEqual(c.worker, *tc.worker) {
				t.Errorf("worker config = %+v (jobs %+v), want %+v (jobs %+v)", c.worker, *c.worker.Jobs, *tc.worker, *tc.worker.Jobs)
			}
			if c.engine != tc.engine {
				t.Errorf("engine options = %+v, want %+v", c.engine, tc.engine)
			}
		})
	}
}

// TestParseFlagsJobsDir pins that -jobs-dir reaches both roles the same
// way: as the Manager of their job-registry options.
func TestParseFlagsJobsDir(t *testing.T) {
	dir := t.TempDir()
	w, err := parseFlags([]string{"-jobs-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseFlags([]string{"-jobs-dir", dir, "-coordinator", "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if w.worker.Jobs.Manager == nil || w.worker.Jobs.Manager.Dir() != dir {
		t.Errorf("worker jobs manager = %v, want one over %s", w.worker.Jobs.Manager, dir)
	}
	if c.coord.Jobs.Manager == nil || c.coord.Jobs.Manager.Dir() != dir {
		t.Errorf("coordinator jobs manager = %v, want one over %s", c.coord.Jobs.Manager, dir)
	}
}

// syncBuffer is a bytes.Buffer safe for one writer and a polling
// reader.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServesPprof boots both roles through run with -pprof-addr and
// checks each announces and answers its profiling listener, then stops
// cleanly when its context is cancelled.
func TestRunServesPprof(t *testing.T) {
	for _, role := range []struct {
		name string
		args []string
	}{
		{"worker", nil},
		{"coordinator", []string{"-coordinator", "127.0.0.1:1"}},
	} {
		t.Run(role.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-drain", "1s"}, role.args...)
			ctx, cancel := context.WithCancel(context.Background())
			var out syncBuffer
			done := make(chan error, 1)
			go func() { done <- run(ctx, args, &out, io.Discard) }()

			var pprofAddr string
			for deadline := time.Now().Add(10 * time.Second); !strings.Contains(out.String(), "pixeld: listening on "); {
				if time.Now().After(deadline) {
					cancel()
					t.Fatalf("never listened; stdout %q", out.String())
				}
				time.Sleep(5 * time.Millisecond)
			}
			for _, line := range strings.Split(out.String(), "\n") {
				if a, ok := strings.CutPrefix(line, "pixeld: pprof on "); ok {
					pprofAddr = a
				}
			}
			if pprofAddr == "" {
				cancel()
				t.Fatalf("no %q line; stdout %q", "pixeld: pprof on", out.String())
			}
			resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("pprof cmdline status %d, want 200", resp.StatusCode)
			}

			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("run returned %v after cancel, want nil", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return after cancel")
			}
		})
	}
}
