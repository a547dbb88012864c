package retrieval

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled is the sentinel Canceled wraps when the caller's context
// dies: errors.Is(err, ErrCanceled) detects cancellation generically,
// while the wrapped context.Cause keeps errors.Is(err, context.Canceled)
// / context.DeadlineExceeded (or any custom cause passed to
// context.WithCancelCause) working too.
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
