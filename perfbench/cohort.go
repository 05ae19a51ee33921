package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// cohort is the host a result was measured on. Results from different
// cohorts are never compared or aggregated (see compare.go): a faster
// number on another CPU, core count, toolchain or kernel path says nothing
// about the code.
type cohort struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Platform   string `json:"platform"`
	// AVX512 reports the CPU's avx512f flag; the tensor kernels take the
	// AVX-512 path only when it is set and CMFL_NOSIMD is not "1".
	AVX512 bool   `json:"avx512"`
	NoSIMD string `json:"cmfl_nosimd"`
}

func hostCohort() cohort {
	c := cohort{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		NoSIMD:     os.Getenv("CMFL_NOSIMD"),
	}
	model, flags, err := readCPUInfo("/proc/cpuinfo")
	if err == nil {
		if model != "" {
			c.CPU = model
		}
		c.AVX512 = flags["avx512f"]
	}
	return c
}

// readCPUInfo returns the first processor's model name and flag set.
func readCPUInfo(path string) (string, map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	var model string
	flags := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if len(flags) == 0 {
				for _, fl := range strings.Fields(val) {
					flags[fl] = true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		if cerr := f.Close(); cerr != nil {
			return "", nil, cerr
		}
		return "", nil, err
	}
	return model, flags, f.Close()
}

func (c cohort) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s avx512=%t CMFL_NOSIMD=%q",
		c.CPU, c.NProc, c.GOMAXPROCS, c.GoVersion, c.Platform, c.AVX512, c.NoSIMD)
}
