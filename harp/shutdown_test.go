package harp

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/platform"
)

// closeWithin fails the test if Close does not return within the deadline —
// the historical failure mode was Close hanging on wg.Wait (handlers blocked
// in reads) or on <-done (measure loop never started).
func closeWithin(t *testing.T, srv *Server, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(d):
		t.Fatal("Close did not return")
	}
}

func TestCloseBeforeServe(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: platform.RaptorLake()})
	if err != nil {
		t.Fatal(err)
	}
	closeWithin(t, srv, 2*time.Second)
	// Serve on a closed server must refuse rather than hang or leak the
	// listener.
	sock := filepath.Join(t.TempDir(), "harp.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
	if _, err := net.Dial("unix", sock); err == nil {
		t.Error("refused Serve left the listener open")
	}
}

func TestDoubleServeRejected(t *testing.T) {
	srv, _ := startServer(t, ServerConfig{})
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "second.sock"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("second Serve succeeded")
	}
}

func TestDoubleCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, ServerConfig{})
	closeWithin(t, srv, 2*time.Second)
	closeWithin(t, srv, 2*time.Second)
}

// TestCloseUnderChurn is the shutdown regression test: repeatedly open a
// server, connect live sessions that keep reporting, and close the server
// mid-traffic. Close must terminate (force-closing session connections so
// handlers unblock) without racing in-flight measureOnce ticks; run with
// -race to check the latter.
func TestCloseUnderChurn(t *testing.T) {
	for round := 0; round < 4; round++ {
		srv, err := NewServer(ServerConfig{
			Platform: platform.RaptorLake(),
			Sampler:  fixedSampler{utility: 90, power: 25},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.measureEvery = time.Millisecond // hammer the measure loop
		sock := filepath.Join(t.TempDir(), fmt.Sprintf("churn%d.sock", round))
		errc := make(chan error, 1)
		go func() { errc <- srv.ListenAndServe(sock) }()
		waitForSocket(t, sock)

		var wg sync.WaitGroup
		clients := make([]*Client, 3)
		for i := range clients {
			c, err := Dial(sock, Registration{
				App: fmt.Sprintf("churn%d", i), PID: 1000*round + i + 1,
				Adaptivity: Scalable, OwnUtility: true,
			})
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, i, err)
			}
			clients[i] = c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-c.Done():
						return
					default:
						_ = c.ReportUtility(42)
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
		}
		time.Sleep(5 * time.Millisecond) // let measure ticks interleave

		closeWithin(t, srv, 5*time.Second)
		if err := <-errc; err != nil {
			t.Fatalf("round %d Serve: %v", round, err)
		}
		for i, c := range clients {
			select {
			case <-c.Done():
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d client %d not released by Close", round, i)
			}
			_ = c.Close()
		}
		wg.Wait()
	}
}

func waitForSocket(t *testing.T, sock string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.Dial("unix", sock)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
