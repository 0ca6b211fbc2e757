package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout without one reports "none", and the source
// digest identifies the code instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod (not the
// benchmark's own), so results name the code they measured even
// where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				if path != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runtimeSnap is a reading of the Go runtime's counters and the
// process's CPU time.
type runtimeSnap struct {
	allocs, allocBytes, gcCycles uint64
	pauses                       *metrics.Float64Histogram
	cpu                          time.Duration
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeSnap{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		pauses:     s[3].Value.Float64Histogram(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// pauseQuantile returns the q-quantile, in seconds, of the GC pauses
// between two readings: the upper edge of the bucket holding it.
func pauseQuantile(a, b runtimeSnap, q float64) float64 {
	var total uint64
	for i := range b.pauses.Counts {
		total += b.pauses.Counts[i] - a.pauses.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i := range b.pauses.Counts {
		seen += b.pauses.Counts[i] - a.pauses.Counts[i]
		if float64(seen) >= q*float64(total) {
			return b.pauses.Buckets[i+1]
		}
	}
	return b.pauses.Buckets[len(b.pauses.Buckets)-1]
}

// liveHeapBytes forces a collection and reads the live heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
