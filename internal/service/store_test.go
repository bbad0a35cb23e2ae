package service

import (
	"testing"
)

func addJob(st *Store) View {
	return st.Add(Request{Model: "resnet50"}, runInputs{})
}

func finishJob(st *Store, id string) {
	st.start(id, func() {})
	st.finish(id, StateDone, "", nil)
}

// TestStoreEvictsOldTerminalJobs: the job table is bounded - beyond MaxJobs
// the oldest terminal jobs (and their results) are evicted, while live jobs
// are never touched.
func TestStoreEvictsOldTerminalJobs(t *testing.T) {
	st := NewStore(2)
	a := addJob(st)
	finishJob(st, a.ID)
	b := addJob(st)
	finishJob(st, b.ID)

	c := addJob(st) // third job pushes the table over its bound
	if _, ok := st.Get(a.ID); ok {
		t.Fatal("oldest terminal job survived eviction")
	}
	if _, ok := st.Get(b.ID); !ok {
		t.Fatal("within-bound terminal job was evicted")
	}

	d := addJob(st) // evicts b, leaving only live jobs
	e := addJob(st) // over bound, but live jobs must never be evicted
	if _, ok := st.Get(b.ID); ok {
		t.Fatal("second terminal job survived eviction")
	}
	for _, id := range []string{c.ID, d.ID, e.ID} {
		v, ok := st.Get(id)
		if !ok {
			t.Fatalf("live job %s was evicted", id)
		}
		if v.State != StateQueued {
			t.Fatalf("live job %s in state %q", id, v.State)
		}
	}
	if got := len(st.List()); got != 3 {
		t.Fatalf("listing has %d jobs, want 3", got)
	}
}

// TestStoreCancelAll: queued jobs jump straight to canceled (unblocking
// their done channels) and running jobs get their contexts canceled.
func TestStoreCancelAll(t *testing.T) {
	st := NewStore(0)
	queued := addJob(st)
	running := addJob(st)
	canceled := false
	st.start(running.ID, func() { canceled = true })

	st.CancelAll()

	if v, _ := st.Get(queued.ID); v.State != StateCanceled {
		t.Fatalf("queued job in state %q, want canceled", v.State)
	}
	h, _ := st.handle(queued.ID)
	select {
	case <-h.done:
	default:
		t.Fatal("queued job's done channel not closed")
	}
	if !canceled {
		t.Fatal("running job's cancel hook not invoked")
	}
	if v, _ := st.Get(running.ID); v.State != StateRunning {
		t.Fatalf("running job must stay running until its worker notices, got %q", v.State)
	}
	st.finish(running.ID, StateCanceled, "canceled", nil)
}

// TestSubmitRejectedWhileDraining: once Stop ran, new submits get 503.
func TestSubmitRejectedWhileDraining(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	svc.Stop()
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", smallJob(1), &e); code != 503 {
		t.Fatalf("status %d, want 503", code)
	}
	if e.Error == "" {
		t.Fatal("503 without an error message")
	}
}
