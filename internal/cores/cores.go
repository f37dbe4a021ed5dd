// Package cores spreads one ingest chunk over the cores. Run hands each
// share of a job to an idle helper goroutine, or runs it on the caller
// when none is idle, so it never waits for one. Helpers start once and
// idle for the life of the process, holding nothing between shares; Run
// allocates nothing, as its caller pools the job and the WaitGroup.
package cores

import (
	"runtime"
	"sync"
)

// Floor is the chunk size, in points, below which a chunk stays on its
// caller: sharing gains from 1,024 points on, not below (EXPERIMENTS.md).
const Floor = 1024

// Procs is runtime.GOMAXPROCS; a test replaces it to share on one CPU.
var Procs = runtime.GOMAXPROCS

// Shares is how many shares a chunk of points splits into.
func Shares(points int) int {
	if points < Floor {
		return 1
	}
	return Procs(0)
}

// Job is work cut into shares; Share(w, n) does share w of n.
type Job interface{ Share(w, n int) }

type task struct {
	job  Job
	w, n int
	wg   *sync.WaitGroup
}

var (
	tasks = make(chan task)
	start sync.Once
)

// Run does shares 0…n−1 of j, returning when all are done; wg must be
// idle. With n = 1 it is j.Share(0, 1).
func Run(j Job, n int, wg *sync.WaitGroup) {
	for w := 1; w < n; w++ {
		start.Do(startHelpers)
		wg.Add(1)
		select {
		case tasks <- task{j, w, n, wg}:
		default:
			wg.Done()
			j.Share(w, n)
		}
	}
	j.Share(0, n)
	wg.Wait()
}

// startHelpers starts a helper per core but the caller's (one on one core).
func startHelpers() {
	for range max(runtime.GOMAXPROCS(0), 2) - 1 {
		go func() {
			for t := range tasks {
				t.job.Share(t.w, t.n)
				t.wg.Done()
			}
		}()
	}
}
