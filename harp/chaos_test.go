package harp

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// TestChaosLiveSockets drives auto-reconnect clients through a storm of
// connection-level faults — abrupt disconnects, read stalls, swallowed
// writes — against a liveness-enabled server, then asserts the system heals:
// every client holds a session again, the standing grants are disjoint, and
// the server shuts down cleanly. Run with -race; the chaos exercises every
// locking path of the server and client.
func TestChaosLiveSockets(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	srv, err := NewServer(ServerConfig{
		Platform:           platform.RaptorLake(),
		DisableExploration: true,
		WriteTimeout:       200 * time.Millisecond,
		Metrics:            mt,
		Liveness: core.LivenessPolicy{
			SuspectAfter:    50 * time.Millisecond,
			QuarantineAfter: 150 * time.Millisecond,
			ReapAfter:       400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.measureEvery = 10 * time.Millisecond
	sock := filepath.Join(t.TempDir(), "harp.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	fln := faultsim.WrapListener(ln)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(fln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	waitSocket(t, sock)

	const nClients = 3
	type clientState struct {
		mu  sync.Mutex
		act Activation
	}
	states := make([]*clientState, nClients)
	clients := make([]*Client, nClients)
	for i := 0; i < nClients; i++ {
		st := &clientState{}
		states[i] = st
		c, err := Dial(sock, Registration{
			App:        fmt.Sprintf("chaos-%d", i),
			PID:        1000 + i,
			Adaptivity: Scalable,
			OnActivate: func(a Activation) {
				st.mu.Lock()
				st.act = a
				st.mu.Unlock()
			},
			Reconnect: ReconnectConfig{
				Enabled:        true,
				InitialBackoff: 10 * time.Millisecond,
				MaxBackoff:     50 * time.Millisecond,
				Seed:           int64(i + 1),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// The storm: seeded for a reproducible fault sequence. Victims are drawn
	// from the accept-order registry, so reconnected sessions get hit too.
	rng := rand.New(rand.NewSource(42))
	stormEnd := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(stormEnd) {
		conns := fln.Conns()
		if len(conns) > 0 {
			victim := conns[rng.Intn(len(conns))]
			switch rng.Intn(3) {
			case 0:
				_ = victim.Close() // abrupt disconnect, no exit message
			case 1:
				victim.StallReads(80 * time.Millisecond)
			case 2:
				victim.DropWrites(true)
				time.AfterFunc(100*time.Millisecond, func() { victim.DropWrites(false) })
			}
		}
		time.Sleep(time.Duration(30+rng.Intn(50)) * time.Millisecond)
	}

	// Healing: every client must hold a live session again and the standing
	// grants must be disjoint (polled, since pushes are asynchronous).
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := len(srv.Sessions()) == nClients
		if healthy {
			for _, c := range clients {
				select {
				case <-c.Done():
					t.Fatalf("client terminated during chaos: %v", c.Err())
				default:
				}
			}
			used := make(map[int]int)
			disjoint := true
			for i, st := range states {
				st.mu.Lock()
				act := st.act
				st.mu.Unlock()
				if len(act.Cores) == 0 {
					disjoint = false // not re-activated yet
					break
				}
				if act.CoAllocated {
					continue
				}
				for _, g := range act.Cores {
					if _, taken := used[g.Core]; taken {
						disjoint = false
					}
					used[g.Core] = i
				}
			}
			if disjoint {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("system did not heal: %d sessions, reaped=%d reconnects=%d",
				len(srv.Sessions()), mt.SessionsReaped.Value(), mt.Reconnects.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The storm must actually have exercised the resilience paths.
	if mt.SessionsReaped.Value() == 0 && mt.Reconnects.Value() == 0 {
		t.Error("chaos storm injected no effective faults")
	}
}
