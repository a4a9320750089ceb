// Package prof writes the CPU and heap profiles the command-line tools offer
// behind -cpuprofile and -memprofile. An empty path turns either one off.
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU begins a CPU profile written to path and returns the function
// that ends it and closes the file.
func StartCPU(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeap writes the allocation record (alloc_space counts every byte
// since start, inuse_space what is live now) to path after a collection, so
// the most recent frees are in it.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
