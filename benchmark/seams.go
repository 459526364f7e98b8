package main

import (
	"net"
	"sync"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/store"
)

// The wrappers below are how the traced run sees inside the system without
// touching product code: each sits on a public seam (core.Config.Allocator /
// harp.ServerConfig.Allocator, core.Config.Store, the net.Listener handed to
// harp.Server.Serve) and opens a span around the call it forwards.

// solveStats aggregates what the allocator seam saw.
type solveStats struct {
	solves      int
	bySource    map[string]int
	lambdaIters int
}

// tracedAllocator forwards to the production solver, recording an
// "alloc.solve" span and the solve's source and λ iterations.
type tracedAllocator struct {
	inner core.Allocator
	tr    *tracer

	mu    sync.Mutex
	stats solveStats
}

func newTracedAllocator(inner core.Allocator, tr *tracer) *tracedAllocator {
	return &tracedAllocator{inner: inner, tr: tr, stats: solveStats{bySource: map[string]int{}}}
}

func (a *tracedAllocator) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	end := a.tr.beginAsync("alloc.solve")
	allocs, st, err := a.inner.AllocateWithStats(apps)
	end()
	a.mu.Lock()
	a.stats.solves++
	a.stats.bySource[st.Source]++
	a.stats.lambdaIters += st.LambdaIters
	a.mu.Unlock()
	return allocs, st, err
}

func (a *tracedAllocator) snapshot() solveStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.stats
	out.bySource = make(map[string]int, len(a.stats.bySource))
	for k, v := range a.stats.bySource {
		out.bySource[k] = v
	}
	return out
}

// tracedSink is a core.StateSink around *store.Store that records a
// "store.append" span per record.
type tracedSink struct {
	inner *store.Store
	tr    *tracer
}

func (s tracedSink) Append(rec store.Record) error {
	name := "store.append"
	if rec.Table != nil {
		name = "store.append.table"
	}
	end := s.tr.beginAsync(name)
	err := s.inner.Append(rec)
	end()
	return err
}

// tracedListener hands out connections whose Read and Write are timed, in
// front of an in-process harp.Server.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tracedConn{Conn: c, tr: l.tr}, nil
}

type tracedConn struct {
	net.Conn
	tr *tracer
}

// Read times the call. The wire protocol reads a 4-byte length prefix and
// then the frame: the prefix read is where a handler blocks waiting for its
// client's next message, so it is recorded under its own name and kept out
// of the transport's busy time.
func (c tracedConn) Read(p []byte) (int, error) {
	name := "harp.conn.read"
	if len(p) == 4 {
		name = "harp.conn.wait"
	}
	end := c.tr.beginAsync(name)
	n, err := c.Conn.Read(p)
	end()
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	end := c.tr.beginAsync("harp.conn.write")
	n, err := c.Conn.Write(p)
	end()
	return n, err
}
