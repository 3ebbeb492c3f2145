package main

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mqpi/internal/engine"
)

// prompts matches the prompts run writes before each line it reads.
var prompts = regexp.MustCompile(`^((mqpi> )|(  \.\.\. ))+`)

// session runs testdata/session.sql through the shell in a fresh directory
// (the script's \save and \wal write files there) and returns its output
// lines with the prompts stripped.
func session(t *testing.T) []string {
	t.Helper()
	script, err := os.ReadFile("testdata/session.sql")
	if err != nil {
		t.Fatal(err)
	}
	return runInTempDir(t, string(script))
}

// runInTempDir runs script through the shell in a fresh working directory and
// returns its output lines with the prompts stripped.
func runInTempDir(t *testing.T, script string) []string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	var out strings.Builder
	run(strings.NewReader(script), &out)
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		lines = append(lines, prompts.ReplaceAllString(l, ""))
	}
	return lines
}

// block returns the lines after the first line equal to from, up to (not
// including) the next result line "(N rows, ...)" or "ok ...".
func block(t *testing.T, lines []string, from string) []string {
	t.Helper()
	i := slices.Index(lines, from)
	if i < 0 {
		t.Fatalf("no line %q in the session output", from)
	}
	var out []string
	for _, l := range lines[i+1:] {
		if strings.HasPrefix(l, "(") || strings.HasPrefix(l, "ok") {
			break
		}
		out = append(out, l)
	}
	return out
}

// TestShellSession runs the committed session script — every backslash
// command and each statement form — and checks what each part printed.
func TestShellSession(t *testing.T) {
	lines := session(t)

	// Each statement's result line, in script order: DDL and DML print "ok"
	// (with the rows they touched), a SELECT its row count.
	result := regexp.MustCompile(`^(ok( \(\d+ rows\))?|\((\d+) rows, [0-9.]+ U of work\))$`)
	var got []string
	for _, l := range lines {
		if m := result.FindStringSubmatch(l); m != nil {
			if m[3] != "" {
				got = append(got, m[3])
			} else {
				got = append(got, m[1])
			}
		}
	}
	want := []string{
		"ok", "ok", "ok", "ok (4 rows)", "ok (6 rows)", // schema and data
		"4", "2", "5", "3", "2", "2", "2", "3", "1", "1", // the SELECT forms
		"ok", "ok", "ok (2 rows)", "ok", "ok", // DDL under the WAL
		"ok (1 rows)", "ok (3 rows)", "ok (1 rows)", "3", // DML under the WAL
		"5", "1", "1", // after \recover
		"4", "1", // after \load
	}
	if !slices.Equal(got, want) {
		t.Errorf("result lines\n got %q\nwant %q", got, want)
	}

	// \recover rebuilds the snapshot and replays every mutation logged after
	// it: the new row, the UPDATE, the DELETE, and the table created (with
	// its index) after the snapshot.
	if !slices.Contains(lines, "recovered (14 wal records applied)") {
		t.Error("no \\recover line with the 14 records logged after \\save")
	}
	recovered := strings.Join(block(t, lines, "recovered (14 wal records applied)"), "\n")
	if want := "name | price | active\nbolt | 3.5 | true\ncog | NULL | NULL\ngear | 13 | true\nnut | 0.75 | false\nspring | 1.1 | true"; recovered != want {
		t.Errorf("after \\recover:\n%s\nwant\n%s", recovered, want)
	}

	// \load brings back the snapshot as saved, BOOLEAN and NULL included.
	loaded := strings.Join(block(t, lines, "loaded"), "\n")
	if want := "name | price | active\nbolt | 2.5 | true\ncog | NULL | NULL\ngear | 12 | true\nnut | 0.75 | false"; loaded != want {
		t.Errorf("after \\load:\n%s\nwant\n%s", loaded, want)
	}

	// Only the script's two deliberate mistakes print an error: an unknown
	// column, and the table \load took away with the rest of the WAL's work.
	var errs []string
	for _, l := range lines {
		if strings.Contains(l, "error:") {
			errs = append(errs, l)
		}
	}
	wantErrs := []string{`error: plan: unknown column nosuch`, `error: catalog: table "extra" does not exist`}
	if !slices.Equal(errs, wantErrs) {
		t.Errorf("error lines\n got %q\nwant %q", errs, wantErrs)
	}
	if !slices.Contains(lines, `unknown command; \help for help`) {
		t.Error("an unknown backslash command was not answered")
	}
}

// TestWALStopsWhenDatabaseReplaced: a WAL logs the database it was started on.
// A \load replaces that database, so the shell closes the log and says so at
// the \load, and a \recover from the log rebuilds what it logged: the one row
// inserted before the \load.
func TestWALStopsWhenDatabaseReplaced(t *testing.T) {
	lines := runInTempDir(t, strings.Join([]string{
		`CREATE TABLE t (a INT);`, `\save s`, `\wal w`, `INSERT INTO t VALUES (1);`,
		`\load s`, `INSERT INTO t VALUES (2);`, `INSERT INTO t VALUES (3);`,
		`\recover s w`, `SELECT a FROM t;`,
	}, "\n"))
	load := slices.Index(lines, "loaded")
	if load < 1 || !strings.HasPrefix(lines[load-1], "logging to w stopped") {
		t.Fatalf("\\load after \\wal did not say that logging stopped:\n%s", strings.Join(lines, "\n"))
	}
	if got := block(t, lines, "recovered (1 wal records applied)"); !slices.Equal(got, []string{"a", "1"}) {
		t.Errorf("after \\recover: %q, want the one row logged before \\load", got)
	}
}

// TestRecoverAfterCheckpointedDelete: a row deleted before \save leaves its
// slot in the checkpoint, so a DELETE logged after it names the same row on
// recovery: of 1-4, deleting 1, checkpointing and deleting 3 leaves 2 and 4.
func TestRecoverAfterCheckpointedDelete(t *testing.T) {
	lines := runInTempDir(t, strings.Join([]string{
		`CREATE TABLE t (a INT);`, `INSERT INTO t VALUES (1), (2), (3), (4);`,
		`DELETE FROM t WHERE a = 1;`, `\save s`, `\wal w`, `DELETE FROM t WHERE a = 3;`,
		`\recover s w`, `SELECT a FROM t;`,
	}, "\n"))
	if got := block(t, lines, "recovered (1 wal records applied)"); !slices.Equal(got, []string{"a", "2", "4"}) {
		t.Errorf("after \\recover: %q, want rows 2 and 4\n%s", got, strings.Join(lines, "\n"))
	}
}

// TestQuitClosesWAL: \quit closes the file \wal opened.
func TestQuitClosesWAL(t *testing.T) {
	var out strings.Builder
	sh := &shell{out: &out, db: engine.Open()}
	if !sh.command(`\wal ` + filepath.Join(t.TempDir(), "w")) {
		t.Fatal(`\wal ended the session`)
	}
	f := sh.wal
	if f == nil {
		t.Fatalf("\\wal opened no file:\n%s", out.String())
	}
	if sh.command(`\quit`) {
		t.Fatal(`\quit did not end the session`)
	}
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("the WAL file after \\quit: Close = %v, want os.ErrClosed", err)
	}
}
