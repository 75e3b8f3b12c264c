package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layerOf buckets one pprof symbol into the layer that owns it: the repo's
// module under repro/internal (copro's per-coprocessor subpackages fold
// into copro, the root facade into core), runtime for the Go runtime and
// its package-less assembly routines (memeqbody, gogo), and other for
// everything else — the standard library, the remaining repo modules and
// this benchmark's own code.
func layerOf(symbol string) string {
	if !strings.Contains(symbol, ".") {
		return "runtime"
	}
	pkg := symbol
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic instantiations may spell package paths
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch {
	case pkg == "repro":
		return "core"
	case strings.HasPrefix(pkg, "repro/internal/"):
		module, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		for _, b := range cpuBuckets {
			if module == b {
				return b
			}
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuShares runs `go tool pprof -top` over a CPU profile and returns each
// bucket's share of all sampled CPU. Every node is listed (no node or edge
// fraction cut-off), so the shares sum to 1.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0",
		"-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %w", profile, err)
	}
	return sharesFromTop(string(out))
}

// sharesFromTop parses `pprof -top` text: after the column header, each
// row is flat, flat%, sum%, cum, cum% and the symbol.
func sharesFromTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	rows := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		flat[layerOf(strings.Join(f[5:], " "))] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: no samples")
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = flat[b] / total
	}
	return shares, nil
}

// parseDuration reads a pprof sample value such as "1.25s", "40ms" or
// "0", in seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"hrs", 3600}, {"mins", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
