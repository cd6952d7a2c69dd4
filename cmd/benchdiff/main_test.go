package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name              string
		tol               string // -tol value; empty = flag not given
		golden, candidate string
		code              int
		want              []string // substrings of stderr
	}{
		{name: "byte-equal", golden: `{"a":[1,2]}`, candidate: `{"a":[1,2]}`, code: 0},
		{name: "formatting drift", golden: `{"a":1}`, candidate: `{"a": 1}`, code: 1,
			want: []string{"values match but bytes differ at offset 5 (formatting drift)"}},
		{name: "missing key", golden: `{"a":1,"s":{"b":2}}`, candidate: `{"a":1,"s":{}}`, code: 1,
			want: []string{"$.s.b: missing in candidate"}},
		{name: "extra key", golden: `{"a":1}`, candidate: `{"a":1,"c":3}`, code: 1,
			want: []string{"$.c: extra in candidate"}},
		{name: "length mismatch", golden: `{"x":[{"y":[1,2]}]}`, candidate: `{"x":[{"y":[1]}]}`, code: 1,
			want: []string{"$.x[0].y: length 2 in golden, 1 in candidate"}},
		{name: "number drift exact", golden: `{"v":100}`, candidate: `{"v":105}`, code: 1,
			want: []string{"$.v: 100 in golden, 105 in candidate"}},
		{name: "number inside tol", tol: "0.1", golden: `{"v":100}`, candidate: `{"v":105}`, code: 0},
		{name: "number outside tol", tol: "0.1", golden: `{"v":[100]}`, candidate: `{"v":[120]}`, code: 1,
			want: []string{"$.v[0]: 100 in golden, 120 in candidate"}},
		{name: "non-JSON", golden: "abc", candidate: "abd", code: 1,
			want: []string{"content differs at byte 2 (not valid JSON on both sides)"}},
		{name: "tol NaN", tol: "NaN", golden: `{"v":1}`, candidate: `{"v":2}`, code: 2,
			want: []string{"-tol must be a finite non-negative number"}},
		{name: "tol Inf", tol: "Inf", golden: `{"v":1}`, candidate: `{"v":2}`, code: 2,
			want: []string{"-tol must be a finite non-negative number"}},
		{name: "tol negative", tol: "-1", golden: `{"v":1}`, candidate: `{"v":1}`, code: 2,
			want: []string{"-tol must be a finite non-negative number"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g, c := filepath.Join(dir, "golden.json"), filepath.Join(dir, "candidate.json")
			for f, body := range map[string]string{g: tc.golden, c: tc.candidate} {
				if err := os.WriteFile(f, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var args []string
			if tc.tol != "" {
				args = append(args, "-tol", tc.tol)
			}
			var stderr bytes.Buffer
			code := run(append(args, g, c), &stderr)
			if code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.code == 0 && stderr.Len() != 0 {
				t.Errorf("unexpected output on a match:\n%s", stderr.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("stderr lacks %q:\n%s", w, stderr.String())
				}
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"only-one"},
		{"a", "b", "c"},
		{"-tol", "x", "a", "b"},
		{filepath.Join(t.TempDir(), "missing.json"), filepath.Join(t.TempDir(), "missing.json")},
	} {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
