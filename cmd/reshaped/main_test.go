package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/scheduler/modes"
)

func TestCheckArbiterFlags(t *testing.T) {
	for _, tc := range []struct {
		procs        int
		arb, weights string
		every        time.Duration
		ok           bool
	}{
		{16, "fcfs", "", 0, true},
		{16, "fairshare", "acme=3", 0, true},
		{16, "rebalance", "", 30 * time.Second, true},
		{1, "fcfs", "", 0, true},
		{16, "benefit", "acme=3", 0, false},
		{16, "rebalance", "acme=3", time.Second, false},
		{16, "fcfs", "", time.Second, false},
		{16, "fairshare", "", time.Second, false},
		{16, "fairshare", "a=NaN,b=1", 0, false},
		{16, "fairshare", "a=Inf,b=1", 0, false},
		{16, "fairshare", "a=1,a=3", 0, false},
		{16, "bogus", "", 0, false},
		{16, "", "", 0, false},
		{0, "fcfs", "", 0, false},
		{-4, "fcfs", "", 0, false},
		{16, "rebalance", "", -time.Second, false},
	} {
		if err := checkFlags(tc.procs, tc.arb, tc.weights, tc.every); (err == nil) != tc.ok {
			t.Errorf("-procs %d -arbiter %s -tenant-weights %q -rebalance-every %v: %v", tc.procs, tc.arb, tc.weights, tc.every, err)
		}
	}
}

// TestSIGTERMShutsDownCleanly builds reshaped, starts it on a WAL directory
// and stops it with a plain kill: it must close the log and print the
// pipeline and journal summaries, as it does on an interrupt.
func TestSIGTERMShutsDownCleanly(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the daemon with")
	}
	bin := filepath.Join(t.TempDir(), "reshaped")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-procs", "4", "-wal-dir", t.TempDir())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var log []string
	next := func(want string) {
		t.Helper()
		timeout := time.After(30 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("daemon output ended without %q:\n%s", want, strings.Join(log, "\n"))
				}
				log = append(log, line)
				if strings.Contains(line, want) {
					return
				}
			case <-timeout:
				t.Fatalf("no %q within 30s:\n%s", want, strings.Join(log, "\n"))
			}
		}
	}
	next("listening on")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	next("shutting down")
	next("apply: ")
	next("wal: ")
	for range lines {
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited with %v after SIGTERM:\n%s", err, strings.Join(log, "\n"))
	}
}

// TestHelpNamesEveryMode builds reshaped and asks it for -h: the -arbiter
// help names every mode modes.Build accepts, with its summary.
func TestHelpNamesEveryMode(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the daemon with")
	}
	bin := filepath.Join(t.TempDir(), "reshaped")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	_, help, ok := strings.Cut(string(out), "  -arbiter ")
	if !ok {
		t.Fatalf("-h does not list -arbiter:\n%s", out)
	}
	help, _, _ = strings.Cut(help, "\n  -")
	for _, m := range modes.Names {
		if _, err := modes.Build(m, modes.Inputs{}); err != nil {
			t.Errorf("mode %s: %v", m, err)
		}
		if s := modes.Summary(m); s == "" || !strings.Contains(help, m+" ("+s+")") {
			t.Errorf("-arbiter help does not name %s with its summary %q:\n%s", m, s, help)
		}
	}
}
