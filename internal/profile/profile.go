// Package profile gives the command-line tools their -cpuprofile and
// -memprofile flags: runtime/pprof profiles of a whole run.
package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts the CPU profile (cpuPath != "") and switches the
// allocation profile to record every allocation rather than a sample
// (memPath != ""). The returned stop ends the former, writes the latter
// and reports what failed; a tool calls it on every path out.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if memPath != "" {
		runtime.MemProfileRate = 1
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeAllocs(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile is complete only up to the last collection
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
