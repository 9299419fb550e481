package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// entriesPrefix marks the line on which a child run prints every value
// it reported, for the parent to read.
const entriesPrefix = "#entries "

// childResult is what a parent keeps of one child run.
type childResult struct {
	outcome outcome
	entries map[string]float64 // every named value the child printed
}

// runChild runs one workload in a fresh process — clean heap, clean
// process-wide metric registry — echoing its report, and waits for it
// to end.
func runChild(sp spec, p params, trace string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{
		"-workload", sp.name,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.Itoa(p.seconds),
		"-trace", trace,
		"-entries",
	}
	if p.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	runErr := cmd.Run()

	var res childResult
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, entriesPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &res.entries); err != nil {
				return res, fmt.Errorf("%s: entries line: %w", sp.name, err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &res.outcome); err != nil {
		return res, errors.Join(fmt.Errorf("%s: no result line", sp.name), runErr)
	}
	// A child that printed a result but exited non-zero failed an
	// output check; the outcome says so.
	return res, nil
}

// printEntries is the child side of entriesPrefix.
func printEntries(passes ...*pass) {
	all := make(map[string]float64)
	for _, ps := range passes {
		if ps == nil {
			continue
		}
		for name, e := range ps.entries {
			all[name] = e.value
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatal(err)
	}
	fmt.Println(entriesPrefix + string(line))
}

// runAll runs every workload once, each in its own process, and prints
// a combined result line keyed workload/metric. A traced run follows
// each untraced one when tracing is on; the span files go to their
// default places.
func runAll(p params) error {
	combined := outcome{Correct: true, Metrics: make(map[string]metricValue)}
	merge := func(sp spec, res childResult) {
		combined.Correct = combined.Correct && res.outcome.Correct
		combined.Attempted += res.outcome.Attempted
		combined.Failed += res.outcome.Failed
		for name, v := range res.outcome.Metrics {
			combined.Metrics[sp.name+"/"+name] = v
		}
	}
	for _, sp := range specs {
		res, err := runChild(sp, p, "0")
		if err != nil {
			return err
		}
		merge(sp, res)
		if p.trace {
			if res, err = runChild(sp, p, "1"); err != nil {
				return err
			}
			merge(sp, res)
		}
	}
	printOutcome(combined)
	if !combined.Correct {
		os.Exit(1)
	}
	return nil
}

// exactCount reports whether a named value is one of the counts that
// must repeat exactly on a single-client workload.
func exactCount(name string) bool {
	return strings.HasPrefix(name, "pm.") && !strings.Contains(name, "_ms") ||
		strings.HasPrefix(name, "engine.") && strings.Contains(name, "_ops") ||
		strings.HasPrefix(name, "enclave.page_swaps") ||
		name == "darknet.gemm_blocked_per_iter"
}

// singleClient names the workloads whose exact counts must repeat.
var singleClient = map[string]bool{"train-resume": true, "ckpt-large": true}

// runRepeat runs sets of all workloads and judges the spread of every
// end-to-end metric on every workload against its bound.
func runRepeat(bs benchSpec, p params, sets int) error {
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	exact := make(map[string]map[string][]float64)
	correct := true
	for set := 0; set < sets; set++ {
		fmt.Printf("#### set %d of %d ####\n", set+1, sets)
		for _, sp := range specs {
			res, err := runChild(sp, p, "0")
			if err != nil {
				return err
			}
			correct = correct && res.outcome.Correct
			if values[sp.name] == nil {
				values[sp.name] = make(map[string][]float64)
				exact[sp.name] = make(map[string][]float64)
			}
			for name, v := range res.outcome.Metrics {
				values[sp.name][name] = append(values[sp.name][name], v.Value)
			}
			for name, v := range res.entries {
				if singleClient[sp.name] && exactCount(name) {
					exact[sp.name][name] = append(exact[sp.name][name], v)
				}
			}
		}
	}

	breached := false
	fmt.Printf("#### spread over %d sets ####\n", sets)
	fmt.Printf("%-14s %-9s %12s %12s %12s %9s %6s\n", "workload", "metric", "q1", "median", "q3", "range/med", "bound")
	for _, sp := range specs {
		for _, d := range bs.EndToEnd {
			vs := values[sp.name][d.Name]
			q1, med, q3 := quartiles(vs)
			s := series(vs).sorted()
			spread := (s[len(s)-1] - s[0]) / med
			verdict := ""
			// Set-up time is judged on its median only, by the driver.
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  BREACH"
				breached = true
			}
			fmt.Printf("%-14s %-9s %12.4f %12.4f %12.4f %9.4f %6.2f%s\n", sp.name, d.Name, q1, med, q3, spread, d.Bound, verdict)
		}
		names := make([]string, 0, len(exact[sp.name]))
		for name := range exact[sp.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := exact[sp.name][name]
			same := true
			for _, v := range vs {
				same = same && v == vs[0]
			}
			verdict := "identical"
			if !same {
				verdict = fmt.Sprintf("DIFFERS %v", vs)
				breached = true
			}
			fmt.Printf("%-14s %-38s %14.4f %s\n", sp.name, name, vs[0], verdict)
		}
	}
	if breached || !correct {
		return errors.New("repeat: a metric spread beyond its bound, an exact count differed, or an output check failed")
	}
	return nil
}
