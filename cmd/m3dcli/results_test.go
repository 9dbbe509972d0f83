package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set in the environment, makes the test binary run
// m3dcli's main with the arguments that follow it on the command line
// instead of the tests, so a test can run the real command line in a
// child process.
const runMainEnv = "M3DCLI_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main() // exits
	}
	os.Exit(m.Run())
}

// TestResultsFullPinned pins the paper-level numbers: `m3dcli all` must
// print exactly the committed results_full.txt. A change that moves a
// simulated number regenerates the file on purpose
// (`go run ./cmd/m3dcli all > results_full.txt`) and says so in
// CHANGES.md. The full run takes tens of seconds, so -short skips it.
func TestResultsFullPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full m3dcli all sweep")
	}
	want, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "all")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("m3dcli all: %v\n%s", err, stderr.Bytes())
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		line := bytes.Count(want[:i], []byte("\n")) + 1
		t.Fatalf("m3dcli all differs from results_full.txt from line %d on (%d bytes printed, %d committed);\n"+
			"if the change is meant to move the numbers, regenerate the file and say so in CHANGES.md", line, len(got), len(want))
	}
}
