package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uptimebroker/internal/jobstore"
	"uptimebroker/internal/obs"
)

// echoResolver rebuilds recovered jobs as functions returning their
// payload, counting invocations.
func echoResolver(ran *atomic.Int64) Resolver {
	return func(kind string, payload []byte) (Fn, error) {
		return func(ctx context.Context) (any, error) {
			if ran != nil {
				ran.Add(1)
			}
			return json.RawMessage(payload), nil
		}, nil
	}
}

// TestCrashRecovery is the core durability contract: a WAL holding a
// finished job, a mid-run job and a queued job — exactly what a crash
// leaves behind — must recover as done-with-result, failed with
// ErrRestartLost, and re-queued-to-completion respectively, with the
// ID sequence resuming past its high-water mark.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	backend, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0).UTC()
	crashState := []jobstore.Event{
		// job 1 finished with a result before the crash.
		{Type: jobstore.EventSubmitted, Time: t0, ID: "job-00000001", Seq: 1, Kind: "recommend", Payload: json.RawMessage(`{"req":1}`)},
		{Type: jobstore.EventStarted, Time: t0, ID: "job-00000001"},
		{Type: jobstore.EventFinished, Time: t0, ID: "job-00000001", State: "done", Result: json.RawMessage(`{"best":7}`)},
		// job 2 was mid-run: started, progress, never finished.
		{Type: jobstore.EventSubmitted, Time: t0, ID: "job-00000002", Seq: 2, Kind: "recommend", Payload: json.RawMessage(`{"req":2}`)},
		{Type: jobstore.EventStarted, Time: t0, ID: "job-00000002"},
		{Type: jobstore.EventProgress, Time: t0, ID: "job-00000002", Evaluated: 40, SpaceSize: 100},
		// job 3 was still queued.
		{Type: jobstore.EventSubmitted, Time: t0, ID: "job-00000003", Seq: 3, Kind: "recommend", Payload: json.RawMessage(`{"req":3}`)},
	}
	for _, ev := range crashState {
		if err := backend.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	s, err := Open(reopened, echoResolver(&ran))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Finished job: result intact, fetched as raw JSON.
	done, err := s.Get("job-00000001")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("job 1 state = %s, want done", done.State)
	}
	if raw, ok := done.Result.(json.RawMessage); !ok || string(raw) != `{"best":7}` {
		t.Fatalf("job 1 result = %#v, want raw {\"best\":7}", done.Result)
	}

	// Mid-run job: failed with restart_lost.
	lost, err := s.Get("job-00000002")
	if err != nil {
		t.Fatal(err)
	}
	if lost.State != StateFailed || !errors.Is(lost.Err, ErrRestartLost) {
		t.Fatalf("job 2 = %s / %v, want failed / ErrRestartLost", lost.State, lost.Err)
	}
	if lost.Evaluated != 40 || lost.SpaceSize != 100 {
		t.Fatalf("job 2 progress = %d/%d, want 40/100 preserved", lost.Evaluated, lost.SpaceSize)
	}

	// Queued job: re-queued through the resolver and runs to done.
	requeued := waitState(t, s, "job-00000003", StateDone)
	if raw, ok := requeued.Result.(json.RawMessage); !ok || string(raw) != `{"req":3}` {
		t.Fatalf("job 3 result = %#v, want its payload echoed", requeued.Result)
	}
	if ran.Load() != 1 {
		t.Fatalf("resolver-built fn ran %d times, want 1", ran.Load())
	}

	// IDs keep increasing past the recovered sequence.
	snap, err := s.Submit("recommend", nil, func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "job-00000004" {
		t.Fatalf("post-recovery ID = %s, want job-00000004", snap.ID)
	}
	if m := s.Metrics(); m.Recovered != 3 {
		t.Fatalf("Recovered = %d, want 3", m.Recovered)
	}
}

// TestRestartLostSurvivesSecondRestart: the recovery verdict is
// itself journaled, so restarting twice keeps the job failed rather
// than resurrecting it as running.
func TestRestartLostSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	backend, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	events := []jobstore.Event{
		{Type: jobstore.EventSubmitted, Time: time.Now(), ID: "job-00000001", Seq: 1, Kind: "recommend"},
		{Type: jobstore.EventStarted, Time: time.Now(), ID: "job-00000001"},
	}
	for _, ev := range events {
		if err := backend.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	for restart := 0; restart < 2; restart++ {
		b, err := jobstore.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(b, echoResolver(nil))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("job-00000001")
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateFailed || !errors.Is(got.Err, ErrRestartLost) {
			t.Fatalf("restart %d: job = %s / %v, want failed / ErrRestartLost", restart, got.State, got.Err)
		}
		s.Close()
	}
}

// TestGracefulCloseRequeuesQueued: a deploy (Close, not crash) must
// not discard queued work — the journal keeps it queued and the
// successor store runs it.
func TestGracefulCloseRequeuesQueued(t *testing.T) {
	dir := t.TempDir()
	backend, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(backend, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	running, err := s.Submit("recommend", []byte(`{"req":"r"}`), func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit("recommend", []byte(`{"req":"q"}`), func(ctx context.Context) (any, error) {
		return "ran in first incarnation", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // deploy: running job cancelled, queued job parked

	b2, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	s2, err := Open(b2, echoResolver(&ran))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// The interrupted running job stays cancelled (it was shut down
	// deliberately, not lost).
	got, err := s2.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("running-at-close job recovered as %s, want cancelled", got.State)
	}

	// The queued job re-runs through the resolver.
	redone := waitState(t, s2, queued.ID, StateDone)
	if raw, ok := redone.Result.(json.RawMessage); !ok || string(raw) != `{"req":"q"}` {
		t.Fatalf("requeued result = %#v", redone.Result)
	}
}

// TestSweptJobsStayGone: TTL sweeps are journaled, so a restart does
// not resurrect expired jobs.
func TestSweptJobsStayGone(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	backend, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(backend, nil, WithWorkers(1), WithTTL(time.Minute), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Submit("recommend", nil, func(ctx context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, snap.ID, StateDone)
	now = now.Add(2 * time.Minute)
	if n := s.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d, want 1", n)
	}
	s.Close()

	b2, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("swept job resurrected: %v", err)
	}
	// The sequence still advances past the swept job's ID.
	again, err := s2.Submit("recommend", nil, func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if again.ID <= snap.ID {
		t.Fatalf("ID regressed: %s after swept %s", again.ID, snap.ID)
	}
}

func TestWatchStreamsTransitionsAndProgress(t *testing.T) {
	s := NewStore(WithWorkers(1))
	defer s.Close()

	release := make(chan struct{})
	snap, err := s.Submit("recommend", nil, func(ctx context.Context) (any, error) {
		reportProgress(ctx, 50, 200)
		reportProgress(ctx, 200, 200)
		<-release
		return "finished", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := s.Watch(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var states []string
	var lastProgress Snapshot
	deadline := time.After(5 * time.Second)
	released := false
	for {
		select {
		case got, ok := <-ch:
			if !ok {
				if len(states) == 0 || states[len(states)-1] != "done" {
					t.Fatalf("stream closed before done; saw %v", states)
				}
				if lastProgress.Evaluated != 200 || lastProgress.SpaceSize != 200 {
					t.Fatalf("final progress = %d/%d, want 200/200", lastProgress.Evaluated, lastProgress.SpaceSize)
				}
				return
			}
			states = append(states, string(got.State))
			if got.Evaluated > 0 {
				lastProgress = got
			}
			// Release the job once progress has been observed so the
			// terminal snapshot is a separate delivery.
			if got.Evaluated == 200 && !released {
				released = true
				close(release)
			}
		case <-deadline:
			t.Fatalf("watch timed out; saw %v", states)
		}
	}
}

func TestWatchTerminalJobDeliversAndCloses(t *testing.T) {
	s := NewStore(WithWorkers(1))
	defer s.Close()
	snap, err := s.Submit("recommend", nil, func(ctx context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, snap.ID, StateDone)

	ch, stop, err := s.Watch(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	got, ok := <-ch
	if !ok || got.State != StateDone {
		t.Fatalf("terminal watch delivered %v/%v", got.State, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel must close after terminal delivery")
	}

	if _, _, err := s.Watch("job-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Watch unknown = %v, want ErrNotFound", err)
	}
}

func TestProgressMonotonic(t *testing.T) {
	s := NewStore(WithWorkers(1))
	defer s.Close()

	checked := make(chan struct{})
	release := make(chan struct{})
	snap, err := s.Submit("recommend", nil, func(ctx context.Context) (any, error) {
		reportProgress(ctx, 150, 200)
		reportProgress(ctx, 40, 200) // a second enumeration phase restarting: ignored
		close(checked)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-checked
	got, err := s.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != 150 || got.SpaceSize != 200 {
		t.Fatalf("progress = %d/%d, want monotonic 150/200", got.Evaluated, got.SpaceSize)
	}
	if f := got.Fraction(); f < 0.74 || f > 0.76 {
		t.Fatalf("Fraction = %v, want 0.75", f)
	}
	close(release)
	waitState(t, s, snap.ID, StateDone)
}

// TestOversizedResultEvictedFromJournal: a result past the persist
// cap stays fetchable in the incarnation that computed it, but a
// restart surfaces the job as failed with an explanation instead of
// hauling half a gigabyte through every snapshot.
func TestOversizedResultEvictedFromJournal(t *testing.T) {
	dir := t.TempDir()
	backend, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(backend, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", maxPersistResultBytes+1)
	snap, err := s.Submit("recommend", nil, func(ctx context.Context) (any, error) {
		return huge, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, snap.ID, StateDone)
	if got, ok := done.Result.(string); !ok || len(got) != len(huge) {
		t.Fatalf("in-process result truncated: %T len %d", done.Result, len(got))
	}
	s.Close()

	// The journal held the eviction note, not the payload.
	if info, err := os.Stat(filepath.Join(dir, "jobs.snapshot.json")); err != nil {
		t.Fatal(err)
	} else if info.Size() > int64(maxPersistResultBytes)/2 {
		t.Fatalf("snapshot is %d bytes; the oversized result leaked into it", info.Size())
	}

	b2, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !errors.Is(got.Err, ErrRestartLost) {
		t.Fatalf("recovered oversized-result job = %s / %v, want failed / ErrRestartLost", got.State, got.Err)
	}
	if !strings.Contains(got.Err.Error(), "persistence cap") {
		t.Fatalf("recovered error %q does not explain the eviction", got.Err)
	}
}

// TestCompactionKeepsRecoverableState: after an explicit compaction
// the WAL is empty but the snapshot alone recovers everything.
func TestCompactionKeepsRecoverableState(t *testing.T) {
	dir := t.TempDir()
	backend, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(backend, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		snap, err := s.Submit("recommend", []byte(fmt.Sprintf(`{"i":%d}`, i)), func(ctx context.Context) (any, error) {
			return map[string]int{"i": i}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
		waitState(t, s, snap.ID, StateDone)
	}
	s.Compact()
	s.Close()

	b2, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, id := range ids {
		got, err := s2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost after compaction: %v", id, err)
		}
		if got.State != StateDone {
			t.Fatalf("job %s state = %s", id, got.State)
		}
		raw, ok := got.Result.(json.RawMessage)
		if !ok || !strings.Contains(string(raw), fmt.Sprintf(`"i":%d`, i)) {
			t.Fatalf("job %s result = %#v", id, got.Result)
		}
	}
}

// reportProgress reports through the running job's context Trace.
func reportProgress(ctx context.Context, done, total int64) { obs.TraceFrom(ctx).Progress(done, total) }
