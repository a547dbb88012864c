package retrieval

import (
	"context"
	"errors"
	"testing"

	"qosalloc/internal/casebase"
)

func TestEngineContextLiveAndCanceled(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cb, Options{})
	req := casebase.PaperRequest()

	// A live context behaves exactly like the plain call.
	want, err := e.Retrieve(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RetrieveContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Impl != want.Impl || got.Similarity != want.Similarity {
		t.Errorf("RetrieveContext = %+v, want %+v", got, want)
	}

	// A dead context refuses the walk with ErrCanceled wrapping the cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RetrieveContext(ctx, req); !errors.Is(err, ErrCanceled) {
		t.Errorf("RetrieveContext(dead) = %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("cause not preserved: %v", err)
	}
	if _, err := e.RetrieveNContext(ctx, req, 3); !errors.Is(err, ErrCanceled) {
		t.Errorf("RetrieveNContext(dead) = %v, want ErrCanceled", err)
	}
	if _, err := e.RetrieveAllContext(ctx, req); !errors.Is(err, ErrCanceled) {
		t.Errorf("RetrieveAllContext(dead) = %v, want ErrCanceled", err)
	}
}

func TestCanceledWrapsCustomCause(t *testing.T) {
	// context.Cause must surface through the wrap, so callers can carry
	// typed causes (admission deadlines, shutdown reasons) across the
	// retrieval layer.
	boom := errors.New("shard draining")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(boom)
	err := Canceled(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Canceled = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("custom cause lost: %v", err)
	}
	// A live (or nil) context is a nil guard.
	if err := Canceled(context.Background()); err != nil {
		t.Errorf("Canceled(live) = %v, want nil", err)
	}
	if err := Canceled(nil); err != nil {
		t.Errorf("Canceled(nil) = %v, want nil", err)
	}
}
