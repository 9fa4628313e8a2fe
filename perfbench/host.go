package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Host is the fingerprint stamped on every result. Two results are
// comparable only when every field but Commit matches.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit identifies the measured sources: a digest of the build
	// inputs in the checkout (the checkout need not be a git
	// repository).
	Commit string `json:"commit"`
}

// sameHost reports whether a and b ran on the same kind of host.
func sameHost(a, b Host) bool {
	return a.CPU == b.CPU && a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS && a.Go == b.Go
}

func fingerprint(root string) Host {
	return Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     treeDigest(root),
	}
}

// treeDigest hashes the paths and contents of the build inputs under
// root (Go sources, module files, the benchmark's definition and
// script), so that any edit to the sources changes it and run outputs,
// such as a --out file, do not.
func treeDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (name == ".git" || name == ".bench_build" || name == ".bench_out") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && isSource(name) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func isSource(name string) bool {
	switch filepath.Ext(name) {
	case ".go", ".s", ".sh":
		return true
	}
	return name == "go.mod" || name == "go.sum" || name == "BENCHMARK.json"
}

// cpuModel returns the processor brand string, read with CPUID where
// the architecture has it, so the fingerprint needs no file outside
// the checkout.
func cpuModel() string {
	s := strings.Join(strings.Fields(cpuBrand()), " ")
	if s == "" {
		return runtime.GOARCH
	}
	return s
}
