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
//	\quit                 exit
//
// Everything else is parsed as SQL (CREATE TABLE / CREATE INDEX / INSERT /
// SELECT). Statements may span lines; terminate them with a semicolon.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"mqpi/internal/engine"
	"mqpi/internal/engine/plan"
	"mqpi/internal/workload"
)

func main() {
	db := engine.Open()
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("mqpi-shell — SQL engine with work-unit accounting. \\help for help.")
	var buf strings.Builder
	prompt := "mqpi> "
	for {
		fmt.Print(prompt)
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if buf.Len() == 0 && strings.HasPrefix(line, "\\") {
			db = command(db, line)
			if db == nil {
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
		runStatement(db, stmt)
	}
}

func command(db *engine.DB, line string) *engine.DB {
	fields := strings.SplitN(line, " ", 2)
	switch fields[0] {
	case "\\quit", "\\q":
		return nil
	case "\\help", "\\h":
		fmt.Println(`commands:
  \tables               list tables with row counts
  \explain SELECT ...   show the physical plan and optimizer costs
  \demo                 load a scaled-down paper dataset (lineitem, part_1..3)
  \save FILE            write a binary snapshot of the database
  \load FILE            replace the session database with a snapshot
  \wal FILE             start write-ahead logging all mutations to FILE
  \recover SNAP WAL     rebuild the session database from snapshot + WAL
  \quit                 exit
any other input is SQL, terminated by ';'`)
	case "\\wal":
		if len(fields) < 2 {
			fmt.Println("usage: \\wal FILE")
			break
		}
		f, err := os.Create(strings.TrimSpace(fields[1]))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if _, err := db.AttachWAL(f); err != nil {
			fmt.Println("error:", err)
			f.Close()
			break
		}
		fmt.Println("logging mutations (file stays open until the shell exits)")
	case "\\recover":
		args := strings.Fields(line)
		if len(args) != 3 {
			fmt.Println("usage: \\recover SNAPSHOT WAL")
			break
		}
		snap, err := os.Open(args[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		wal, err := os.Open(args[2])
		if err != nil {
			snap.Close()
			fmt.Println("error:", err)
			break
		}
		recovered, applied, err := engine.Recover(snap, wal)
		snap.Close()
		wal.Close()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("recovered (%d wal records applied)\n", applied)
		return recovered
	case "\\save":
		if len(fields) < 2 {
			fmt.Println("usage: \\save FILE")
			break
		}
		f, err := os.Create(strings.TrimSpace(fields[1]))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		err = db.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("saved")
	case "\\load":
		if len(fields) < 2 {
			fmt.Println("usage: \\load FILE")
			break
		}
		f, err := os.Open(strings.TrimSpace(fields[1]))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		loaded, err := engine.Load(f)
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("loaded")
		return loaded
	case "\\tables":
		cat := db.Catalog()
		for _, name := range cat.TableNames() {
			t, err := cat.Table(name)
			if err != nil {
				continue
			}
			fmt.Printf("  %-20s %8d rows  %6d pages\n", name, t.Rel.NumRows(), t.Rel.NumPages())
		}
	case "\\explain":
		if len(fields) < 2 {
			fmt.Println("usage: \\explain SELECT ...")
			break
		}
		src := strings.TrimSuffix(strings.TrimSpace(fields[1]), ";")
		p, err := db.Plan(src)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(plan.Explain(p))
	case "\\demo":
		demo, err := workload.DemoDB(30000)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("loaded lineitem (30000 rows) and part_1..part_3; try:")
		fmt.Println(" ", workload.QuerySQL(2)+";")
		return demo
	default:
		fmt.Println("unknown command; \\help for help")
	}
	return db
}

func runStatement(db *engine.DB, stmt string) {
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") {
		rows, schema, work, err := db.Query(strings.TrimSuffix(stmt, ";"))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		// Header.
		names := make([]string, schema.Len())
		for i, c := range schema.Cols {
			names[i] = c.Name
		}
		fmt.Println(strings.Join(names, " | "))
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
			fmt.Println(strings.Join(parts, " | "))
		}
		if len(rows) > maxShow {
			fmt.Printf("... (%d more rows)\n", len(rows)-maxShow)
		}
		fmt.Printf("(%d rows, %.0f U of work)\n", len(rows), work)
		return
	}
	n, err := db.Exec(strings.TrimSuffix(stmt, ";"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if n > 0 {
		fmt.Printf("ok (%d rows)\n", n)
	} else {
		fmt.Println("ok")
	}
}
