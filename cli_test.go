package nvsim_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/profile"
)

// clis are the six user-facing commands; every one of them accepts -profile
// and must fail an unknown name the same way: exit 2 with the registered
// list on stderr.
var clis = []string{"nvsim", "nvbench", "nvartifact", "nvperf", "nvtrace", "nvreport"}

var (
	cliBuildOnce sync.Once
	cliBinDir    string
	cliBuildErr  error
)

// buildCLIs compiles every command once per test process into a shared
// temporary directory (go's build cache makes repeats cheap).
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliBuildOnce.Do(func() {
		cliBinDir, cliBuildErr = os.MkdirTemp("", "nvsim-cli-test")
		if cliBuildErr != nil {
			return
		}
		for _, name := range clis {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliBinDir, name), "./cmd/"+name)
			if out, err := cmd.CombinedOutput(); err != nil {
				cliBuildErr = err
				t.Logf("building %s: %s", name, out)
				return
			}
		}
	})
	if cliBuildErr != nil {
		t.Fatalf("building CLIs: %v", cliBuildErr)
	}
	return cliBinDir
}

// cleanEnv is the process environment with NVSIM_PROFILE removed, so tests
// control profile selection explicitly.
func cleanEnv(extra ...string) []string {
	env := make([]string, 0, len(os.Environ())+len(extra))
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, profile.Env+"=") {
			env = append(env, kv)
		}
	}
	return append(env, extra...)
}

func runCLI(t *testing.T, bin string, env []string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: %v", bin, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestUnknownProfileExitsTwo: every CLI rejects an unknown -profile with exit
// code 2 and names the registered profiles, so a typo'd testbed never
// silently falls back to the Xeon calibration.
func TestUnknownProfileExitsTwo(t *testing.T) {
	dir := buildCLIs(t)
	for _, name := range clis {
		t.Run(name, func(t *testing.T) {
			_, stderr, code := runCLI(t, filepath.Join(dir, name), cleanEnv(), "-profile", "no-such-testbed")
			if code != 2 {
				t.Fatalf("%s -profile no-such-testbed exited %d, want 2 (stderr: %s)", name, code, stderr)
			}
			if !strings.Contains(stderr, `unknown calibration profile "no-such-testbed"`) {
				t.Errorf("%s stderr does not name the bad profile: %s", name, stderr)
			}
			if !strings.Contains(stderr, "registered: "+strings.Join(profile.Names(), ", ")) {
				t.Errorf("%s stderr does not list the registered profiles: %s", name, stderr)
			}
		})
	}
}

// TestProfileEnvFlagPrecedence pins the selection order on a real process:
// NVSIM_PROFILE applies when no flag is given, an explicit -profile beats it
// (even when the env value is garbage), and an unknown env value alone fails
// with exit 2.
func TestProfileEnvFlagPrecedence(t *testing.T) {
	dir := buildCLIs(t)
	bin := filepath.Join(dir, "nvtrace")
	args := []string{"-depth", "1", "-micro", "Hypercall"}

	stdout, stderr, code := runCLI(t, bin, cleanEnv(profile.Env+"=ice-lake-sp"), args...)
	if code != 0 {
		t.Fatalf("nvtrace under %s=ice-lake-sp exited %d: %s", profile.Env, code, stderr)
	}
	if !strings.Contains(stdout, "profile=ice-lake-sp") {
		t.Errorf("env-selected profile not reported: %s", stdout)
	}

	stdout, stderr, code = runCLI(t, bin, cleanEnv(profile.Env+"=no-such-testbed"),
		append([]string{"-profile", "epyc-milan"}, args...)...)
	if code != 0 {
		t.Fatalf("-profile did not override a bad env value; exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "profile=epyc-milan") {
		t.Errorf("flag-selected profile not reported: %s", stdout)
	}

	_, stderr, code = runCLI(t, bin, cleanEnv(profile.Env+"=no-such-testbed"), args...)
	if code != 2 {
		t.Fatalf("unknown %s value exited %d, want 2 (stderr: %s)", profile.Env, code, stderr)
	}
	if !strings.Contains(stderr, "registered:") {
		t.Errorf("env failure does not list registered profiles: %s", stderr)
	}
}

// TestListProfiles: nvbench and nvartifact enumerate the registry — every
// registered name with its description and anchor assertions, sorted, with
// the default marked — and exit 0 without running anything.
func TestListProfiles(t *testing.T) {
	dir := buildCLIs(t)
	for _, name := range []string{"nvbench", "nvartifact"} {
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, filepath.Join(dir, name), cleanEnv(), "-list-profiles")
			if code != 0 {
				t.Fatalf("%s -list-profiles exited %d: %s", name, code, stderr)
			}
			last := -1
			for _, p := range profile.All() {
				idx := strings.Index(stdout, p.Name)
				if idx < 0 {
					t.Fatalf("%s output missing profile %s:\n%s", name, p.Name, stdout)
				}
				if idx < last {
					t.Errorf("%s listing is not sorted: %s appears before a lexicographically earlier name", name, p.Name)
				}
				last = idx
				if !strings.Contains(stdout, p.Description) {
					t.Errorf("%s output missing description for %s", name, p.Name)
				}
				if !strings.Contains(stdout, p.AnchorString()) {
					t.Errorf("%s output missing anchors for %s", name, p.Name)
				}
			}
			if !strings.Contains(stdout, profile.DefaultName+" (default)") {
				t.Errorf("%s listing does not mark the default profile:\n%s", name, stdout)
			}
		})
	}
}

// TestNvbenchUnknownExperimentRunsNothing: an unknown -experiment name fails
// before anything runs, even next to a valid selector, so a typo never costs
// a full table run or leaves partial output on stdout.
func TestNvbenchUnknownExperimentRunsNothing(t *testing.T) {
	dir := buildCLIs(t)
	stdout, stderr, code := runCLI(t, filepath.Join(dir, "nvbench"), cleanEnv(), "-table", "3", "-experiment", "typo")
	if code == 0 {
		t.Fatalf("nvbench -table 3 -experiment typo exited 0")
	}
	if stdout != "" {
		t.Errorf("nvbench printed %d bytes before rejecting the name:\n%s", len(stdout), stdout)
	}
	if !strings.Contains(stderr, `unknown experiment "typo"`) || !strings.Contains(stderr, "stages-sweep") {
		t.Errorf("stderr does not name the bad experiment and the valid ones: %s", stderr)
	}
}
