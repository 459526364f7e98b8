package harp

import (
	"fmt"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// recordingSampler records the PIDs it is asked for, in call order.
type recordingSampler struct{ pids []int }

func (r *recordingSampler) Sample(pid int) (float64, float64, error) {
	r.pids = append(r.pids, pid)
	return 100, 20, nil
}

// TestMeasureOrderIsFixed pins harpd's measure order: every tick samples the
// sessions in the same (sorted instance) order, and so does a second server
// with the same registrations. Epochs a measurement triggers then run in the
// same order on every run, whatever Go's map iteration order.
func TestMeasureOrderIsFixed(t *testing.T) {
	const sessions, ticks = 12, 5
	run := func() [][]int {
		rec := &recordingSampler{}
		srv, err := NewServer(ServerConfig{
			Platform:           platform.RaptorLake(),
			DisableExploration: true,
			Sampler:            rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.mu.Lock()
		for i := sessions; i > 0; i-- { // registration order is not sorted order
			app := fmt.Sprintf("app%d", i%3)
			instance := fmt.Sprintf("%s/%d", app, i)
			srv.addSessionLocked(instance, &serverSession{instance: instance, pid: i})
			if err := srv.mgr.Register(instance, app, workload.Scalable, false); err != nil {
				srv.mu.Unlock()
				t.Fatal(err)
			}
		}
		srv.mu.Unlock()
		var perTick [][]int
		for range ticks {
			rec.pids = nil
			srv.measureOnce()
			perTick = append(perTick, rec.pids)
		}
		return perTick
	}

	first := run()
	for i, pids := range first {
		if len(pids) != sessions {
			t.Fatalf("tick %d sampled %d sessions, want %d", i, len(pids), sessions)
		}
		if !slices.Equal(pids, first[0]) {
			t.Fatalf("tick %d sampled PIDs %v, tick 0 sampled %v", i, pids, first[0])
		}
	}
	if second := run(); !slices.Equal(second[0], first[0]) {
		t.Fatalf("a second server sampled PIDs %v, the first %v", second[0], first[0])
	}
}
