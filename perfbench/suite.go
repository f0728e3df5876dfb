package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"cobrawalk/internal/expt"
)

// suiteScale is the paper suite's fixed scale: the CI scale, seconds per
// pass over all fifteen experiments.
const suiteScale = expt.Smoke

// suiteWarmup names the experiment whose untimed run is the suite's
// set-up: it brings the code and heap to steady state before timing.
const suiteWarmup = "E1"

// table is one rendered experiment table (FormatJSON record).
type table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes"`
}

// stableCells renders a table's cells without its wall-clock columns,
// which legitimately differ between runs.
func (t table) stableCells() string {
	var keep []int
	for i, c := range t.Columns {
		if !strings.Contains(c, "wall-clock") {
			keep = append(keep, i)
		}
	}
	var b strings.Builder
	for _, row := range t.Rows {
		for _, i := range keep {
			if i < len(row) {
				b.WriteString(row[i])
			}
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// parseTables reads an experiment's NDJSON output: the announcement line
// and one line per table.
func parseTables(out []byte) ([]table, error) {
	var tables []table
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var t table
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return nil, err
		}
		if t.Columns != nil {
			tables = append(tables, t)
		}
	}
	return tables, sc.Err()
}

// violated reports the first VIOLATED verdict a table carries.
func violated(t table) (string, bool) {
	for _, row := range t.Rows {
		for _, c := range row {
			if strings.Contains(c, "VIOLATED") {
				return strings.Join(row, " "), true
			}
		}
	}
	for _, n := range t.Notes {
		if strings.Contains(n, "VIOLATED") {
			return n, true
		}
	}
	return "", false
}

// runPaperSuite is paper-suite: every registered experiment at one fixed
// scale and seed, each Experiment.Run timed.
func runPaperSuite(e *env) (*outcome, error) {
	ctx := context.Background()
	p := expt.Params{Scale: suiteScale, Seed: suiteSeed, Workers: e.nproc, Format: expt.FormatJSON}
	exps := expt.Registry()
	// The job is one pass over the suite: per-experiment times are the
	// expt layer's metrics, and a median over fifteen unlike experiments
	// would sit wherever the ranking of the middle few happens to fall.
	o := &outcome{jobsPer: 1}

	var err error
	o.setups, err = repeat(5, func(int) error {
		ex, err := expt.Lookup(suiteWarmup)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		return ex.Run(ctx, &buf, p)
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	perExp := map[string][]time.Duration{}
	first := map[string]string{} // table key → stable cells of pass 0
	unstable := map[string]bool{}
	pass := func(i int, traced bool) (time.Duration, error) {
		var root int
		if traced {
			root = e.tr.begin("suite.pass", 0)
		}
		var total time.Duration
		for _, ex := range exps {
			var buf bytes.Buffer
			if err := expt.Announce(&buf, p, ex); err != nil {
				return 0, err
			}
			var s int
			if traced {
				s = e.tr.begin("expt."+ex.ID, root)
			}
			t := time.Now()
			err := ex.Run(ctx, &buf, p)
			d := time.Since(t)
			if traced {
				e.tr.end(s)
			}
			o.attempted++
			if err != nil {
				o.fail("%s: %v", ex.ID, err)
				continue
			}
			total += d
			perExp[ex.ID] = append(perExp[ex.ID], d)
			tables, err := parseTables(buf.Bytes())
			if err != nil {
				o.fail("%s: parsing tables: %v", ex.ID, err)
				continue
			}
			for k, t := range tables {
				if v, bad := violated(t); bad {
					o.fail("%s reports a violated claim: %s", ex.ID, v)
				}
				key := fmt.Sprintf("%s#%d %s", ex.ID, k, t.Title)
				cells := t.stableCells()
				if prev, ok := first[key]; !ok {
					first[key] = cells
				} else if prev != cells {
					unstable[key] = true
				}
			}
		}
		if traced {
			e.tr.end(root)
		}
		return total, nil
	}

	budget := e.budget
	if e.traced {
		budget /= 2
	}
	o.walls, err = measure(budget, 3, func(i int) (time.Duration, error) { return pass(i, false) })
	if err != nil {
		return nil, err
	}
	o.jobs = o.walls
	if e.traced {
		d, err := pass(len(o.walls), true)
		if err != nil {
			return nil, err
		}
		o.traced = append(o.traced, d)
		o.layers = map[string]any{}
		for _, ex := range exps {
			o.layers["expt."+ex.ID+"_s"] = median(perExp[ex.ID]).Seconds()
		}
		o.layers["expt.unstable_tables"] = int64(len(unstable))
	}
	var keys []string
	for k := range unstable {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	o.notes = map[string]any{"unstable_tables": keys}
	return o, nil
}
