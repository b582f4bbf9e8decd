// Package clitest holds test helpers shared by the commands' main tests.
package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// HelpExitsZero checks a command's main under -h: it re-runs the calling
// test in a child process of the test binary, where main runs with args
// "-h", and fails unless the child prints the usage text and exits 0 with
// no error line. Call it as the whole body of a top-level test.
func HelpExitsZero(t *testing.T, name string, main func()) {
	t.Helper()
	const env = "CLITEST_RUN_MAIN"
	if os.Getenv(env) == "1" {
		os.Args = []string{name, "-h"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), env+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s -h: %v\n%s", name, err, &stderr)
	}
	if out := stderr.String(); !strings.Contains(out, "Usage of "+name) || strings.Contains(out, "help requested") {
		t.Fatalf("%s -h stderr is not just the usage text:\n%s", name, out)
	}
}
