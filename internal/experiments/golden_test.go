package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares got with the committed testdata/<name> byte for
// byte and reports the first differing line. A missing golden is written
// and the test fails once, so regenerating one after an intended output
// change is: delete the file, run the test, review the diff, commit.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("golden %s did not exist; wrote it — review and commit", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d (got %d lines, want %d)\n got: %q\nwant: %q",
				path, i+1, len(gotLines), len(wantLines), g, w)
		}
	}
}
