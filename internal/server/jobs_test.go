package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
	"pixel/internal/jobs"
)

func newJobsManager(t *testing.T, dir string) *jobs.Manager {
	t.Helper()
	m, err := jobs.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// jobsServer builds a server with the durable-job routes enabled and
// the built-in (pixel facade) factory.
func jobsServer(t *testing.T, mgr *jobs.Manager) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{
		Engine: &stubEngine{},
		Logger: discardLogger(),
		Jobs: &jobs.RegistryOptions{
			Manager:   mgr,
			SaveEvery: 5 * time.Millisecond,
			Heartbeat: 50 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close() // settle jobs first so SSE handlers unblock
		ts.Close()
	})
	return srv, ts
}

// waitJobState polls until the job reaches a terminal state.
func waitJobState(t *testing.T, c *api.Client, id string) api.JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case api.JobStateSucceeded, api.JobStateFailed, api.JobStateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q at %d/%d", id, st.State, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycle drives a real robustness job end to end over HTTP:
// 202 on create, status polls through to success, the result
// value-identical to the synchronous pixel.RobustnessContext call, and delete
// forgetting the job.
func TestJobLifecycle(t *testing.T) {
	_, ts := jobsServer(t, newJobsManager(t, t.TempDir()))
	c := api.NewClient(ts.URL, nil)
	ctx := context.Background()

	spec := api.RobustnessRequest{Network: "tiny", Design: "OO", Sigmas: []float64{0, 1, 3}, Trials: 8, Seed: 11}
	h, err := c.CreateJob(ctx, api.JobRequest{Kind: api.JobKindRobustness, Robustness: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID == "" || h.Kind != api.JobKindRobustness {
		t.Fatalf("handle = %+v", h)
	}
	st := waitJobState(t, c, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("job finished %q (%s), want succeeded", st.State, st.Error)
	}
	if st.Done != st.Total || st.Done == 0 {
		t.Fatalf("finished at %d/%d, want full", st.Done, st.Total)
	}

	var got pixel.RobustnessReport
	if err := json.Unmarshal(st.Result, &got); err != nil {
		t.Fatal(err)
	}
	want, err := pixel.RobustnessContext(ctx, pixel.RobustnessSpec{
		Network: "tiny", Design: pixel.OO, Sigmas: []float64{0, 1, 3}, Trials: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("job result differs from synchronous run:\ngot  %+v\nwant %+v", got, want)
	}

	if err := c.DeleteJob(ctx, h.ID); err != nil {
		t.Fatal(err)
	}
	var he *api.HTTPError
	if _, err := c.Job(ctx, h.ID); !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Fatalf("deleted job still answers: %v", err)
	}
}

// TestSweepJobLifecycle: the sweep kind works through the same routes.
func TestSweepJobLifecycle(t *testing.T) {
	_, ts := jobsServer(t, newJobsManager(t, t.TempDir()))
	c := api.NewClient(ts.URL, nil)

	h, err := c.CreateJob(context.Background(), api.JobRequest{
		Kind:  api.JobKindSweep,
		Sweep: &api.SweepRequest{Networks: []string{"LeNet"}, Lanes: []int{2}, Bits: []int{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobState(t, c, h.ID)
	if st.State != api.JobStateSucceeded {
		t.Fatalf("sweep job finished %q (%s)", st.State, st.Error)
	}
	var resp api.SweepResponse
	if err := json.Unmarshal(st.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if wantPoints := len(pixel.Designs()); resp.Points != wantPoints || len(resp.Results["LeNet"]) != wantPoints {
		t.Fatalf("sweep result = %d points, %d rows; want %d", resp.Points, len(resp.Results["LeNet"]), wantPoints)
	}
}

// TestJobEventsReconnect streams a job's events in two sessions: the
// second reconnects with Last-Event-ID and the combined stream is
// gap-free and duplicate-free from seq 1 through the terminal event.
func TestJobEventsReconnect(t *testing.T) {
	_, ts := jobsServer(t, newJobsManager(t, t.TempDir()))
	c := api.NewClient(ts.URL, nil)
	ctx := context.Background()

	spec := api.RobustnessRequest{Network: "tiny", Design: "OO", Sigmas: []float64{0, 1, 3}, Trials: 64, Seed: 5}
	h, err := c.CreateJob(ctx, api.JobRequest{Kind: api.JobKindRobustness, Robustness: &spec})
	if err != nil {
		t.Fatal(err)
	}

	var events []api.JobEvent
	s1, err := c.JobEvents(ctx, h.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	lastSeq := s1.LastSeq()
	s1.Close()

	s2, err := c.JobEvents(ctx, h.ID, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for {
		ev, err := s2.Next()
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		if ev.Terminal() {
			break
		}
	}

	points := 0
	for i, ev := range events {
		if want := int64(i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (gap or duplicate across reconnect)", i, ev.Seq, want)
		}
		if ev.Type == api.JobEventPoint {
			points++
		}
	}
	if points != len(spec.Sigmas) {
		t.Fatalf("saw %d point events, want %d", points, len(spec.Sigmas))
	}
	if last := events[len(events)-1]; last.Type != api.JobEventSucceeded {
		t.Fatalf("terminal event = %+v, want succeeded", last)
	}
}

// fakeJobTask is a controllable jobs.Task for restart tests: slots
// complete one per step-channel receive (or freely when step is nil),
// and the final result records how many slots THIS process executed —
// distinguishing restored progress from re-executed work.
type fakeJobTask struct {
	total int
	step  chan struct{}

	mu   sync.Mutex
	done int
	ran  int
}

func (f *fakeJobTask) Progress() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done, f.total
}

func (f *fakeJobTask) Snapshot() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return json.Marshal(f.done)
}

func (f *fakeJobTask) Restore(b []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return json.Unmarshal(b, &f.done)
}

func (f *fakeJobTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	for {
		f.mu.Lock()
		done := f.done
		f.mu.Unlock()
		if done >= f.total {
			break
		}
		if f.step != nil {
			select {
			case <-f.step:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f.mu.Lock()
		f.done++
		f.ran++
		done = f.done
		f.mu.Unlock()
		emit(api.JobEventProgress, api.JobProgress{Done: done, Total: f.total})
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]int{"ran": f.ran}, nil
}

// TestJobRestartRecovery is the server-level durability property: stop
// a server mid-job, start a new one on the same directory, and the job
// resumes from its checkpoint — only the unfinished slots execute in
// the second process, the status is marked adopted, and the event
// stream picks up with an "adopted" event at a seq past the first
// process's events.
func TestJobRestartRecovery(t *testing.T) {
	dir := t.TempDir()

	task1 := &fakeJobTask{total: 4, step: make(chan struct{})}
	srv1 := New(Config{
		Engine: &stubEngine{},
		Logger: discardLogger(),
		Jobs: &jobs.RegistryOptions{
			Manager: newJobsManager(t, dir),
			Factory: func(kind string, spec json.RawMessage) (jobs.Task, error) { return task1, nil },
		},
	})
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := api.NewClient(ts1.URL, nil)
	h, err := c1.CreateJob(context.Background(), api.JobRequest{Kind: api.JobKindRobustness, Robustness: &api.RobustnessRequest{Network: "tiny"}})
	if err != nil {
		t.Fatal(err)
	}
	task1.step <- struct{}{}
	task1.step <- struct{}{}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if done, _ := task1.Progress(); done == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached 2/4")
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Close() // cancels the job; shutdown flushes a final checkpoint
	ts1.Close()

	task2 := &fakeJobTask{total: 4} // free-running: finishes what remains
	srv2 := New(Config{
		Engine: &stubEngine{},
		Logger: discardLogger(),
		Jobs: &jobs.RegistryOptions{
			Manager: newJobsManager(t, dir),
			Factory: func(kind string, spec json.RawMessage) (jobs.Task, error) { return task2, nil },
		},
	})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		srv2.Close()
		ts2.Close()
	})
	c2 := api.NewClient(ts2.URL, nil)

	st := waitJobState(t, c2, h.ID)
	if st.State != api.JobStateSucceeded || !st.Adopted {
		t.Fatalf("recovered job: state %q adopted %v, want succeeded + adopted", st.State, st.Adopted)
	}
	var result map[string]int
	if err := json.Unmarshal(st.Result, &result); err != nil {
		t.Fatal(err)
	}
	if result["ran"] != 2 {
		t.Fatalf("second process executed %d slots, want exactly the 2 unfinished ones", result["ran"])
	}

	// The replayed stream starts with the adoption marker, and its seqs
	// continue past the first process's events instead of restarting.
	s, err := c2.JobEvents(context.Background(), h.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Type != api.JobEventAdopted {
		t.Fatalf("first replayed event = %+v, want adopted", first)
	}
	// The first process published progress events at seqs 0 and 1, so
	// adoption must continue at 2 rather than restart numbering.
	if first.Seq != 2 {
		t.Fatalf("adopted event seq %d does not continue the pre-restart log", first.Seq)
	}
	for {
		ev, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Terminal() {
			if ev.Type != api.JobEventSucceeded {
				t.Fatalf("terminal event = %+v", ev)
			}
			break
		}
	}
}

// TestJobValidation pins the request-shape guards: disabled routes
// answer 501, malformed submissions 400, unknown ids 404, and the
// robustness trial cap applies to jobs exactly as it does to the
// synchronous route.
func TestJobValidation(t *testing.T) {
	bare := New(Config{Engine: &stubEngine{}, Logger: discardLogger()})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	resp, _ := postJSON(t, tsBare.URL+"/v1/jobs", `{"kind":"robustness"}`)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("jobs on a bare server: %d, want 501", resp.StatusCode)
	}

	srv := New(Config{
		Engine:    &stubEngine{},
		Logger:    discardLogger(),
		MaxTrials: 16,
		Jobs:      &jobs.RegistryOptions{},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})

	for name, body := range map[string]string{
		"unknown kind":    `{"kind":"divination"}`,
		"missing spec":    `{"kind":"robustness"}`,
		"trials over cap": `{"kind":"robustness","robustness":{"network":"tiny","design":"OO","sigmas":[0],"trials":17}}`,
		"empty networks":  `{"kind":"sweep","sweep":{"networks":[],"lanes":[2],"bits":[4]}}`,
		"unknown field":   `{"kind":"robustness","robustness":{"network":"tiny","design":"OO","sigmas":[0],"trials":4,"cheat":true}}`,
		"trailing data":   `{"kind":"robustness","robustness":{"network":"tiny","design":"OO","sigmas":[0],"trials":4}} {"kind":"sweep"}`,
	} {
		resp, got := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, got)
		}
	}

	if resp, _ := getBody(t, ts.URL+"/v1/jobs/no-such-job"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: %d, want 404", resp.StatusCode)
	}
}

// TestSweepJobPartialCells: the sweep task records every priced grid
// cell and reports them sorted (network, then index) with rows equal
// to the final SweepResponse — the /v1/jobs/{id} partial for sweeps.
func TestSweepJobPartialCells(t *testing.T) {
	srv := New(Config{
		Engine: &stubEngine{},
		Logger: discardLogger(),
		Jobs:   &jobs.RegistryOptions{},
	})
	defer srv.Close()

	spec, err := json.Marshal(api.SweepRequest{
		Networks: []string{"LeNet", "AlexNet"},
		Designs:  []string{"OO"},
		Lanes:    []int{2, 4},
		Bits:     []int{4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := httpx.JobFactory(srv.newRobustnessTask, srv.newSweepTask)(api.JobKindSweep, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := task.(*sweepTask)
	if !ok {
		t.Fatalf("sweep task is %T", task)
	}
	res, err := st.Run(context.Background(), func(string, any) {})
	if err != nil {
		t.Fatal(err)
	}
	resp := res.(api.SweepResponse)

	cells, ok := st.Partial().([]api.JobCell)
	if !ok {
		t.Fatalf("Partial() is %T, want []api.JobCell", st.Partial())
	}
	if want := 2 * resp.Points; len(cells) != want {
		t.Fatalf("partial holds %d cells, want %d", len(cells), want)
	}
	for k, c := range cells {
		if k > 0 {
			prev := cells[k-1]
			if prev.Network > c.Network || (prev.Network == c.Network && prev.Index >= c.Index) {
				t.Fatalf("cells unsorted at %d: %s/%d after %s/%d", k, c.Network, c.Index, prev.Network, prev.Index)
			}
		}
		want := resp.Results[c.Network][c.Index]
		if !reflect.DeepEqual(c.Result, want) {
			t.Fatalf("cell %s/%d differs from final row:\ngot  %+v\nwant %+v", c.Network, c.Index, c.Result, want)
		}
	}
}

// wrappedEngine is an Evaluator that embeds a *pixel.Engine, as a
// tracing or instrumenting wrapper does.
type wrappedEngine struct{ *pixel.Engine }

// TestSweepJobUsesWrappedEngine: a sweep job runs on the configured
// engine even when it is a wrapper around one, so it shares that
// engine's result LRU and its pixeld_engine_cost_calls_total.
func TestSweepJobUsesWrappedEngine(t *testing.T) {
	eng := wrappedEngine{pixel.NewEngine(pixel.EngineOptions{})}
	srv := New(Config{Engine: eng, Logger: discardLogger(), Jobs: &jobs.RegistryOptions{}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	c := api.NewClient(ts.URL, nil)

	h, err := c.CreateJob(context.Background(), api.JobRequest{
		Kind:  api.JobKindSweep,
		Sweep: &api.SweepRequest{Networks: []string{"LeNet"}, Designs: []string{"OO"}, Lanes: []int{2, 4}, Bits: []int{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJobState(t, c, h.ID); st.State != api.JobStateSucceeded {
		t.Fatalf("sweep job finished %q (%s)", st.State, st.Error)
	}
	if got := eng.CostCalls(); got != 2 {
		t.Fatalf("wrapped engine priced %d points, want the job's 2", got)
	}
}
