package main

// CLI golden test: the profile command over the small music example,
// run by re-executing the test binary, prints exactly the committed
// goldens under testdata/.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"efes/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from the current output")

func TestMain(m *testing.M) {
	if os.Getenv("EFES_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// execCLI re-executes the test binary as the profile command and returns
// its output and exit error.
func execCLI(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EFES_CHILD=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.Bytes(), errb.Bytes(), err
}

func TestProfileGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "source")
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	if err := scn.Sources[0].DB.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"songs-top3.golden", []string{"-table", "songs", "-topk", "3"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			out, errb, err := execCLI(append([]string{"-dir", dir}, tc.args...)...)
			if err != nil {
				t.Fatalf("profile %v: %v\n%s", tc.args, err, errb)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, out, want)
			}
		})
	}
}

func TestProfileUnknownDir(t *testing.T) {
	_, errb, err := execCLI("-dir", filepath.Join(t.TempDir(), "missing"))
	if err == nil {
		t.Fatal("profile over a missing directory succeeded")
	}
	if !bytes.Contains(errb, []byte("profile:")) {
		t.Errorf("stderr lacks the profile: prefix:\n%s", errb)
	}
}
