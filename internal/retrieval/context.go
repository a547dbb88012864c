package retrieval

import (
	"context"
	"errors"
	"fmt"

	"qosalloc/internal/casebase"
)

// ErrCanceled is the sentinel every context-aware retrieval path wraps
// when the caller's context dies: errors.Is(err, ErrCanceled) detects
// cancellation generically, while the wrapped context.Cause keeps
// errors.Is(err, context.Canceled) / context.DeadlineExceeded (or any
// custom cause passed to context.WithCancelCause) working too.
var ErrCanceled = errors.New("retrieval: canceled")

// Canceled reports ctx's cancellation as an error wrapping both
// ErrCanceled and context.Cause(ctx). It returns nil while ctx is live
// (or nil), so call sites can use it as a guard between list walks.
func Canceled(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// RetrieveContext is Retrieve honoring cancellation: the engine checks
// ctx before walking the requested type's implementation list. A single
// list walk is never torn mid-scan — the datapath streams one sorted
// list atomically (fig. 6) — so cancellation lands on walk boundaries.
func (e *Engine) RetrieveContext(ctx context.Context, req casebase.Request) (Result, error) {
	if err := Canceled(ctx); err != nil {
		return Result{}, err
	}
	return e.Retrieve(req)
}

// RetrieveNContext is RetrieveN honoring cancellation between list walks.
func (e *Engine) RetrieveNContext(ctx context.Context, req casebase.Request, n int) ([]Result, error) {
	if err := Canceled(ctx); err != nil {
		return nil, err
	}
	return e.RetrieveN(req, n)
}

// RetrieveAllContext is RetrieveAll honoring cancellation between list
// walks.
func (e *Engine) RetrieveAllContext(ctx context.Context, req casebase.Request) ([]Result, error) {
	if err := Canceled(ctx); err != nil {
		return nil, err
	}
	return e.RetrieveAll(req)
}
