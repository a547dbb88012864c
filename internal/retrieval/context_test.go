package retrieval

import (
	"context"
	"errors"
	"testing"
)

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
