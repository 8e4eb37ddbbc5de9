package service

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestPanickingJobFailsAlone: a request that passes validation but panics
// inside the algorithm (fft at n = 2^62 asks makeslice for 2^62
// elements) fails its own job.  A repeat fails the same way instead of
// blocking on the dead computation, and the daemon keeps answering.
func TestPanickingJobFailsAlone(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := Request{Algorithm: "fft", N: 1 << 62, Kind: KindTrace, Wait: true}
	for attempt := 1; attempt <= 2; attempt++ {
		resp, err := c.Analyze(ctx, req)
		if ctx.Err() != nil {
			t.Fatalf("attempt %d hung: %v", attempt, ctx.Err())
		}
		if err == nil && resp.Status != string(StatusFailed) {
			t.Fatalf("attempt %d: status %q, want failed", attempt, resp.Status)
		}
		if msg := resp.Error + errString(err); !strings.Contains(msg, "panicked") {
			t.Errorf("attempt %d: error %q does not report the panic", attempt, msg)
		}
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz after the panics: %v", err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs.Panics != 2 || snap.Jobs.Failed != 2 {
		t.Errorf("jobs %+v, want 2 panics and 2 failures", snap.Jobs)
	}
	ok, err := c.Analyze(ctx, Request{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true})
	if err != nil || ok.Status != string(StatusDone) {
		t.Errorf("request after the panics: %+v, %v", ok.Status, err)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// panicOnJobStart is a log handler that panics on the worker's
// "job started" record: a panic outside any store computation.
type panicOnJobStart struct{ slog.Handler }

func (h panicOnJobStart) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "job started" {
		panic("logger exploded")
	}
	return h.Handler.Handle(ctx, r)
}

// TestJobWorkerBackstop: a panic in the worker outside every store's
// recovery still fails only its job, and the worker serves the next one.
func TestJobWorkerBackstop(t *testing.T) {
	base := slog.New(slog.NewTextHandler(&strings.Builder{}, nil))
	_, c := newTestServer(t, Config{Workers: 1, Logger: slog.New(panicOnJobStart{base.Handler()})})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, n := range []int{64, 128} {
		resp, err := c.Analyze(ctx, Request{Algorithm: "fft", N: n, Kind: KindTrace, Wait: true})
		if ctx.Err() != nil {
			t.Fatalf("n=%d hung: %v", n, ctx.Err())
		}
		if err == nil && resp.Status != string(StatusFailed) {
			t.Fatalf("n=%d: status %q, want failed", n, resp.Status)
		}
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs.Panics != 2 || snap.Jobs.Failed != 2 || snap.Jobs.Running != 0 {
		t.Errorf("jobs %+v, want 2 panics, 2 failures, none running", snap.Jobs)
	}
}
