package convert

import (
	"socyield/internal/obs"
)

// Option configures optional instrumentation of a conversion run; the
// zero configuration costs nothing (both hooks no-op when nil).
type Option func(*options)

type options struct {
	state  *obs.BuildState
	tracer *obs.Tracer
}

// WithBuildState attaches a live progress tracker: the converter
// counts converted entry nodes as it goes, so /v1/builds and the
// flight recorder can report conversion progress mid-build. The total
// is not known until the recursion finishes, so none is published.
func WithBuildState(b *obs.BuildState) Option {
	return func(o *options) { o.state = b }
}

// WithTracer attaches a flight-recorder tracer: the whole conversion
// becomes one timed event on the build track (worker 0) of the Chrome
// trace export, after the compile's per-gate events.
func WithTracer(t *obs.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
