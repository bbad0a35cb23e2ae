package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	"soma/internal/engine"
	"soma/internal/obs"
	"soma/internal/soma"
)

// TestStoredPayloadIsDeterministic: a fixed-seed job's stored result is
// exactly the deterministic payload of the same engine run, byte for byte,
// even though the job itself ran with observability and a convergence
// journal attached.
func TestStoredPayloadIsDeterministic(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	v := submit(t, ts, smallJob(7))
	if got := pollUntil(t, ts, v.ID, 2*time.Minute, terminal); got.State != StateDone {
		t.Fatalf("job finished %q (err %q), want done", got.State, got.Error)
	}
	stored, ok := svc.store.Get(v.ID)
	if !ok || stored.Result == nil {
		t.Fatal("no stored result")
	}
	if stored.Result.Raw != nil {
		t.Error("stored result keeps its Raw artifacts")
	}

	par, err := soma.ProfileParams("fast")
	if err != nil {
		t.Fatal(err)
	}
	par.Seed = 7
	par.Beta1, par.Beta2 = 2, 1
	par.Stage2MaxIters = 1 << 20
	res, err := engine.Run(context.Background(), engine.Request{Backend: "soma",
		Model: "mobilenetv2", Batch: 1, Platform: "edge", Objective: soma.EDP(),
		Params: par, Obs: obs.New(), Journal: obs.NewJournal()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || res.Convergence == nil {
		t.Fatal("library run lacks the sections Deterministic drops")
	}
	if !bytes.Equal(renderResult(t, stored.Result), renderResult(t, res.Deterministic())) {
		t.Errorf("stored payload differs from engine.Run(...).Deterministic():\n%s\nvs\n%s",
			renderResult(t, stored.Result), renderResult(t, res.Deterministic()))
	}
}
