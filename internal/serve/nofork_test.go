package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/video"
)

// TestNothingUnderASessionForks pins the unit of parallelism: a session's
// goroutine runs its own kernels. Student inference, a distillation step
// and a batched teacher forward leave the goroutine count exactly where it
// was — no kernel forks and no pool is started behind the caller's back —
// building a Manager starts nothing either, and after two concurrent
// sessions through it the count is back at its baseline, so nothing a
// session started outlives it.
func TestNothingUnderASessionForks(t *testing.T) {
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 23))
	if err != nil {
		t.Fatal(err)
	}
	frame := gen.Next()
	student := tinyStudent(5)
	cfg := core.DefaultConfig()
	cfg.Threshold = 0.999 // force optimization steps
	dist := core.NewDistiller(cfg, tinyStudent(6))
	tch := teacher.NewCNNTeacher(7)

	baseline := runtime.NumGoroutine()
	for _, step := range []struct {
		name string
		run  func()
	}{
		{"Student.Infer", func() { student.Infer(frame.Image) }},
		{"Distiller.Train", func() { dist.Train(frame, frame.Label) }},
		{"CNNTeacher.InferBatch", func() { tch.InferBatch([]video.Frame{frame, frame, frame}) }},
	} {
		step.run()
		if n := runtime.NumGoroutine(); n != baseline {
			t.Fatalf("%s: %d goroutines, %d before it — a kernel forked", step.name, n, baseline)
		}
	}

	m := testManager(t, tinyStudent(1), 2)
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("NewManager: %d goroutines, %d before it — a manager runs nothing of its own", n, baseline)
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(t, m, uint64(c+1), int64(40+c), 20)
		}()
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after two sessions, %d before them\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
