// Command mqpi-shell is an interactive SQL shell over the engine, with the
// multi-query progress machinery visible: every query reports its optimizer
// cost estimate and the work it actually consumed, and EXPLAIN-style plan
// output is available via \explain.
//
// Commands:
//
//	\help                 show help
//	\tables               list tables
//	\explain SELECT ...   show the physical plan with costs (in U's)
//	\demo                 load a scaled-down Table 1 dataset (lineitem + part_1..3)
//	\save FILE            write a checkpoint: the redo log of the whole database
//	\load FILE            replace the database with a checkpoint
//	\wal FILE             write-ahead log every mutation to FILE
//	\recover SNAP WAL     rebuild the database from checkpoint + WAL
//	\quit                 exit
//
// A WAL belongs to the database it was started on: \load, \recover and \demo
// replace that database, so they close the file and say that logging stopped.
//
// Everything else is parsed as SQL (CREATE TABLE / CREATE INDEX / DROP TABLE /
// INSERT / UPDATE / DELETE / SELECT). Statements may span lines; terminate
// them with a semicolon. testdata/session.sql is a session that uses each.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"mqpi/internal/engine"
	"mqpi/internal/engine/plan"
	"mqpi/internal/workload"
)

func main() {
	run(os.Stdin, os.Stdout)
}

// shell is one session: the database its statements run against, and the file
// \wal logs that database's mutations into.
type shell struct {
	out io.Writer
	db  *engine.DB
	wal *os.File // nil when not logging
}

// run reads commands and statements from in until EOF or \quit, writing
// prompts, results and errors to out.
func run(in io.Reader, out io.Writer) {
	sh := &shell{out: out, db: engine.Open()}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(out, "mqpi-shell — SQL engine with work-unit accounting. \\help for help.")
	var buf strings.Builder
	prompt := "mqpi> "
	for {
		fmt.Fprint(out, prompt)
		if !sc.Scan() {
			fmt.Fprintln(out)
			sh.stopWAL()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if buf.Len() == 0 && strings.HasPrefix(line, "\\") {
			if !sh.command(line) {
				return
			}
			continue
		}
		if line == "" {
			continue
		}
		buf.WriteString(line)
		buf.WriteByte(' ')
		if !strings.HasSuffix(line, ";") {
			prompt = "  ... "
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		prompt = "mqpi> "
		runStatement(out, sh.db, stmt)
	}
}

// stopWAL closes the file \wal opened, if any, and returns its name.
func (sh *shell) stopWAL() string {
	if sh.wal == nil {
		return ""
	}
	name := sh.wal.Name()
	if err := sh.wal.Close(); err != nil {
		fmt.Fprintln(sh.out, "error:", err)
	}
	sh.wal = nil
	return name
}

// replace makes db the session database. The WAL, if any, logged the old one:
// it is closed, and the shell says so.
func (sh *shell) replace(db *engine.DB) {
	if name := sh.stopWAL(); name != "" {
		fmt.Fprintf(sh.out, "logging to %s stopped: it logged the database this one replaces (\\wal FILE to log again)\n", name)
	}
	sh.db = db
}

// command runs one backslash command and reports whether the session goes on.
func (sh *shell) command(line string) bool {
	out, db := sh.out, sh.db
	fields := strings.SplitN(line, " ", 2)
	switch fields[0] {
	case "\\quit", "\\q":
		sh.stopWAL()
		return false
	case "\\help", "\\h":
		fmt.Fprintln(out, `commands:
  \tables               list tables with row counts
  \explain SELECT ...   show the physical plan and optimizer costs
  \demo                 load a scaled-down paper dataset (lineitem, part_1..3)
  \save FILE            write a checkpoint (the redo log of the whole database)
  \load FILE            replace the session database with a checkpoint
  \wal FILE             start write-ahead logging all mutations to FILE
  \recover SNAP WAL     rebuild the session database from checkpoint + WAL
  \quit                 exit
any other input is SQL, terminated by ';'`)
	case "\\wal":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\wal FILE")
			break
		}
		f, err := os.Create(strings.TrimSpace(fields[1]))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		if err := db.AttachWAL(f); err != nil {
			fmt.Fprintln(out, "error:", err)
			f.Close()
			break
		}
		sh.stopWAL() // the database now logs into f alone
		sh.wal = f
		fmt.Fprintf(out, "logging mutations to %s (until \\load, \\recover, \\demo or \\quit)\n", f.Name())
	case "\\recover":
		args := strings.Fields(line)
		if len(args) != 3 {
			fmt.Fprintln(out, "usage: \\recover SNAPSHOT WAL")
			break
		}
		snap, err := os.Open(args[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		wal, err := os.Open(args[2])
		if err != nil {
			snap.Close()
			fmt.Fprintln(out, "error:", err)
			break
		}
		recovered, applied, err := engine.Recover(snap, wal)
		snap.Close()
		wal.Close()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		sh.replace(recovered)
		fmt.Fprintf(out, "recovered (%d wal records applied)\n", applied)
	case "\\save":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\save FILE")
			break
		}
		f, err := os.Create(strings.TrimSpace(fields[1]))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		err = db.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintln(out, "saved")
	case "\\load":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\load FILE")
			break
		}
		f, err := os.Open(strings.TrimSpace(fields[1]))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		loaded, err := engine.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		sh.replace(loaded)
		fmt.Fprintln(out, "loaded")
	case "\\tables":
		cat := db.Catalog()
		for _, name := range cat.TableNames() {
			t, err := cat.Table(name)
			if err != nil {
				continue
			}
			fmt.Fprintf(out, "  %-20s %8d rows  %6d pages\n", name, t.Rel.NumRows(), t.Rel.NumPages())
		}
	case "\\explain":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\explain SELECT ...")
			break
		}
		src := strings.TrimSuffix(strings.TrimSpace(fields[1]), ";")
		p, err := db.Plan(src)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprint(out, plan.Explain(p))
	case "\\demo":
		demo, err := workload.DemoDB(30000)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		sh.replace(demo)
		fmt.Fprintln(out, "loaded lineitem (30000 rows) and part_1..part_3; try:")
		fmt.Fprintln(out, " ", workload.QuerySQL(2)+";")
	default:
		fmt.Fprintln(out, "unknown command; \\help for help")
	}
	return true
}

func runStatement(out io.Writer, db *engine.DB, stmt string) {
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") {
		rows, schema, work, err := db.Query(strings.TrimSuffix(stmt, ";"))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		// Header.
		names := make([]string, schema.Len())
		for i, c := range schema.Cols {
			names[i] = c.Name
		}
		fmt.Fprintln(out, strings.Join(names, " | "))
		limit := len(rows)
		const maxShow = 50
		if limit > maxShow {
			limit = maxShow
		}
		for _, r := range rows[:limit] {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Fprintln(out, strings.Join(parts, " | "))
		}
		if len(rows) > maxShow {
			fmt.Fprintf(out, "... (%d more rows)\n", len(rows)-maxShow)
		}
		fmt.Fprintf(out, "(%d rows, %.0f U of work)\n", len(rows), work)
		return
	}
	n, err := db.Exec(strings.TrimSuffix(stmt, ";"))
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if n > 0 {
		fmt.Fprintf(out, "ok (%d rows)\n", n)
	} else {
		fmt.Fprintln(out, "ok")
	}
}
