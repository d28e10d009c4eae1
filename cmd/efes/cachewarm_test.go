package main

// CLI cache test: -cache-dir gives the one-shot CLI the same durable,
// content-addressed warm path as the daemon — the second -json run over
// unchanged data is served from the cache byte-identically, and a data
// change invalidates the address and recomputes.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"efes/internal/scenario"
)

func TestMain(m *testing.M) {
	if os.Getenv("EFES_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// saveMusicScenario writes the music example to disk in the CLI's
// directory format and returns the target dir, source dir, and the
// correspondence file path.
func saveMusicScenario(t *testing.T, root string) (string, string, string) {
	t.Helper()
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	targetDir := filepath.Join(root, "target")
	if err := scn.Target.SaveDir(targetDir); err != nil {
		t.Fatal(err)
	}
	srcDir := filepath.Join(root, "source")
	if err := scn.Sources[0].DB.SaveDir(srcDir); err != nil {
		t.Fatal(err)
	}
	var corr bytes.Buffer
	if err := scn.Sources[0].Correspondences.WriteText(&corr); err != nil {
		t.Fatal(err)
	}
	corrFile := filepath.Join(root, "corr.txt")
	if err := os.WriteFile(corrFile, corr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return targetDir, srcDir, corrFile
}

// runCLI re-executes the test binary as the efes CLI, failing the test
// when the command fails.
func runCLI(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	out, errb, err := execCLI(args...)
	if err != nil {
		t.Fatalf("efes %v: %v\n%s", args, err, errb)
	}
	return out, errb
}

// execCLI re-executes the test binary as the efes CLI and returns its
// output and exit error.
func execCLI(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EFES_CHILD=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.Bytes(), errb.Bytes(), err
}

func TestCacheDirWarmsRepeatRuns(t *testing.T) {
	root := t.TempDir()
	targetDir, srcDir, corrFile := saveMusicScenario(t, root)
	cacheDir := filepath.Join(root, "cache")
	args := []string{
		"-target", targetDir, "-source", srcDir, "-corr", corrFile,
		"-json", "-cache-dir", cacheDir,
	}

	cold, coldErr := runCLI(t, args...)
	if bytes.Contains(coldErr, []byte("result served from cache")) {
		t.Fatal("cold run claims a cache hit")
	}
	warm, warmErr := runCLI(t, args...)
	if !bytes.Contains(warmErr, []byte("result served from cache")) {
		t.Fatalf("second run not served from cache:\n%s", warmErr)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm output not byte-identical to the cold run")
	}

	// Changing the data moves the content address: the next run
	// recomputes instead of serving the stale result.
	f, err := os.OpenFile(filepath.Join(srcDir, "albums.csv"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("999999,Extra Album,al1\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	changed, changedErr := runCLI(t, args...)
	if bytes.Contains(changedErr, []byte("result served from cache")) {
		t.Fatal("mutated data served from the stale cache entry")
	}
	if bytes.Equal(cold, changed) {
		t.Error("mutated data produced the identical estimate bytes")
	}
}

// TestNegativeRetriesFailBeforeCache: -retries -1 would run no detector
// attempt and price an empty estimate. The CLI refuses it before it loads
// anything or opens the cache, so no result is stored under the
// policy-free result key, and the next plain run computes.
func TestNegativeRetriesFailBeforeCache(t *testing.T) {
	root := t.TempDir()
	targetDir, srcDir, corrFile := saveMusicScenario(t, root)
	cacheDir := filepath.Join(root, "cache")
	args := []string{
		"-target", targetDir, "-source", srcDir, "-corr", corrFile,
		"-json", "-cache-dir", cacheDir,
	}
	out, errOut, err := execCLI(append(args, "-retries", "-1")...)
	if err == nil || !bytes.Contains(errOut, []byte("-retries -1 is negative")) {
		t.Fatalf("-retries -1: err %v, stdout %q, stderr %q; want a failure naming the negative retries", err, out, errOut)
	}
	if entries, err := os.ReadDir(filepath.Join(cacheDir, "results")); len(entries) != 0 || (err != nil && !os.IsNotExist(err)) {
		t.Fatalf("-retries -1 left %d result entries (%v)", len(entries), err)
	}
	plain, plainErr := runCLI(t, args...)
	if bytes.Contains(plainErr, []byte("result served from cache")) {
		t.Fatal("the plain run after -retries -1 was served from the cache")
	}
	if bytes.Contains(plain, []byte(`"totalMinutes": 0,`)) {
		t.Errorf("the plain run printed a 0-minute estimate:\n%s", plain)
	}
}
