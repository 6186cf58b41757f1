package obs

import (
	"sync"
	"time"
)

// Span is one timed phase of a run. Spans nest into a tree: the
// pipeline opens a root span per evaluation and a child span per phase
// (prepare, encode, order, compile, convert, eval), so a snapshot shows
// where the wall time went. Timing uses the monotonic clock carried by
// time.Time, so spans are immune to wall-clock adjustments.
//
// All methods are safe for concurrent use and no-ops on a nil
// receiver, so un-instrumented runs pay nothing.
type Span struct {
	name   string
	start  time.Time
	parent *Span // nil for a root span

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child opens a sub-span. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.addChild(name, time.Now())
}

func (s *Span) addChild(name string, start time.Time) *Span {
	c := &Span{name: name, start: start, parent: s}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// First opens the first phase of a chain under s: a child that starts
// at s's own start instant. A chain opened with First and continued
// with Next, whose parent is ended with End, tiles the parent exactly:
// every instant of s belongs to one phase. Returns nil on a nil
// receiver.
func (s *Span) First(name string) *Span {
	if s == nil {
		return nil
	}
	return s.addChild(name, s.start)
}

// Next ends s and opens its sibling name at the same instant, so a
// chain of phases opened with Next leaves no gap between one phase's
// end and the next one's start. A span already ended keeps its first
// duration. A root span has no siblings: Next ends it and returns nil,
// as it does on a nil receiver.
func (s *Span) Next(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.endAt(now)
	if s.parent == nil {
		return nil
	}
	return s.parent.addChild(name, now)
}

// End stops the span, and at the same instant every child still
// running, so a parent never ends before its children and the last
// phase of a chain ends exactly with its parent. It returns the span's
// duration. Repeated End calls keep the first duration. On a nil
// receiver it returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	return s.endAt(time.Now())
}

// endAt ends s and its running descendants at now. Locks are taken
// parent before child, never the other way round.
func (s *Span) endAt(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = now.Sub(s.start)
		s.ended = true
		for _, c := range s.children {
			c.endAt(now)
		}
	}
	return s.dur
}

// Duration returns the span's duration — final if ended, elapsed so
// far otherwise. 0 on a nil receiver.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Name returns the span's name ("" on a nil receiver).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SpanSnapshot is the exported state of one span subtree.
type SpanSnapshot struct {
	Name string `json:"name"`
	// Seconds is the span duration (elapsed so far when still running).
	Seconds float64 `json:"seconds"`
	// StartUnixNano is the wall-clock start of the span, for exports
	// that place spans on an absolute timeline (the Chrome trace
	// writer).
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
	// Running marks spans that had not ended at snapshot time.
	Running  bool           `json:"running,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	dur := s.dur
	ended := s.ended
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if !ended {
		dur = time.Since(s.start)
	}
	out := SpanSnapshot{Name: s.name, Seconds: dur.Seconds(), StartUnixNano: s.start.UnixNano(), Running: !ended}
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot())
	}
	return out
}
