package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profile"
)

// provenance describes the host and configuration a result came from.
// Results are comparable only when these match (the seed aside).
func provenance(name string, seed uint64, seconds int, traced bool) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"schema":        schema,
		"workload":      name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         traced,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"profile":       profile.DefaultName,
		"pool_width":    experiment.Parallelism(),
		"git_commit":    commit,
		"git_modified":  modified,
		"source_sha256": sourceDigest("internal", "go.mod"),
	}
}

// cpuModel reads the host CPU's model name.
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

// sourceDigest hashes the simulator's sources, which identifies the code
// under test where the checkout carries no git metadata. Unreadable entries
// are skipped: the digest then differs, which is what a comparison needs.
func sourceDigest(roots ...string) string {
	h := sha256.New()
	for _, root := range roots {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			h.Write([]byte(filepath.ToSlash(path)))
			h.Write(data)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
