package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fakeTree writes a module holding the packages bench-pairs.sh builds
// first (the root) and one gated benchmark, BenchmarkPutRepeatedText in
// ./internal/storage, whose body is body.
func fakeTree(t *testing.T, body string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                     "module fake\n\ngo 1.22\n",
		"root_test.go":               "package fake\n",
		"internal/storage/x_test.go": "package storage\n\nimport \"testing\"\n\nfunc BenchmarkPutRepeatedText(b *testing.B) {\n\t" + body + "\n}\n",
	}
	for name, text := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestBenchPairsToleratesABrokenBase: a benchmark that panics at the
// merge-base does not fail the change that mends it. The script warns, keeps
// the base's output apart, and the gate lists the benchmark as head only.
// The same panic on the head side fails the script.
func TestBenchPairsToleratesABrokenBase(t *testing.T) {
	for _, tool := range []string{"bash", "go"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not found: %v", tool, err)
		}
	}
	broken := fakeTree(t, `panic("broken at the merge-base")`)
	mended := fakeTree(t, `b.ReportMetric(100, "B/record")`)
	pairsRun := func(base, head string) (string, string, error) {
		out := t.TempDir()
		log, err := exec.Command("bash", "bench-pairs.sh", base, head, out).CombinedOutput()
		return out, string(log), err
	}

	out, log, err := pairsRun(broken, mended)
	if err != nil {
		t.Fatalf("broken base, mended head: %v\n%s", err, log)
	}
	if !strings.Contains(log, "WARNING: ./internal/storage ^BenchmarkPutRepeatedText$ failed on the base side") {
		t.Errorf("no warning for the failing base benchmark:\n%s", log)
	}
	if failed, _ := os.ReadFile(filepath.Join(out, "base.failed.out")); !strings.Contains(string(failed), "broken at the merge-base") {
		t.Errorf("base.failed.out does not keep the base's panic: %q", failed)
	}
	baseOut, _ := os.ReadFile(filepath.Join(out, "base.out"))
	base, _ := parseBench(strings.NewReader(string(baseOut)))
	head, err := parseFile(filepath.Join(out, "head.out"))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := gate(base, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].name != "PutRepeatedText" || len(vs[0].head[nsPerOp]) != pairs || !strings.HasSuffix(vs[0].row(), "head only") {
		t.Fatalf("verdicts = %+v, want PutRepeatedText head only with %d runs", vs, pairs)
	}

	if _, log, err := pairsRun(mended, broken); err == nil {
		t.Fatalf("a head that panics passed:\n%s", log)
	}
}
