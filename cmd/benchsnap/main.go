// Command benchsnap converts `go test -bench` text output into a
// machine-readable JSON snapshot, so the serving benchmarks
// (BenchmarkServeBatched, BenchmarkServeUnbatched,
// BenchmarkWireBinaryVsJSON, BenchmarkProxyOverhead) and the training
// layers under them (the internal/tensor GEMM benchmarks in GFLOP/s,
// internal/cyclegan BenchmarkTrainStepTiny) leave an artifact that
// scripts and CI can diff instead of a transient log line. The
// checked-in BENCH_8.json at the repo root is one such snapshot; CI
// regenerates it every run and uploads the fresh copy, so a perf
// regression is visible as a JSON diff against the committed baseline.
//
// Usage:
//
//	go test -bench 'ServeBatched|ServeUnbatched|WireBinaryVsJSON|ProxyOverhead' -run '^$' . ./internal/serve/ \
//	    | benchsnap -out BENCH_8.json
//
// Input is the standard benchmark line format:
//
//	BenchmarkServeBatched-8   	    1929	    617294 ns/op	   103.7 rows/sec ...
//
// Every value/unit pair is kept verbatim (ns/op, B/op, allocs/op, and
// custom ReportMetric units alike); non-benchmark lines pass through to
// stderr so interleaved test output stays visible. The snapshot records
// GOOS/GOARCH and the benchmark's -cpu suffix but deliberately no
// timestamp: reruns on identical code and hardware should produce
// byte-identical JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one value/unit pair of a benchmark line.
type Measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one benchmark's parsed line.
type Result struct {
	// Name is the benchmark name with the -cpu suffix stripped
	// (BenchmarkServeBatched-8 → ServeBatched).
	Name string `json:"name"`
	// CPU is the -cpu suffix (GOMAXPROCS during the run), 1 if absent.
	CPU int `json:"cpu"`
	// Iterations is the b.N the reported values are averaged over.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every pair on the line.
	Metrics map[string]Measurement `json:"metrics"`
}

// Snapshot is the emitted JSON document.
type Snapshot struct {
	// Schema names this document's shape, versioned independently of
	// the repo, so downstream parsers can reject what they don't know.
	Schema  string   `json:"schema"`
	GOOS    string   `json:"goos"`
	GOARCH  string   `json:"goarch"`
	Results []Result `json:"results"`
}

// benchLine matches "BenchmarkName[-cpu] <iterations> <pairs...>".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parseLine parses one benchmark output line, or returns false for
// headers, pass/fail trailers, and interleaved log output.
func parseLine(line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Result{}, false
	}
	r := Result{
		Name:    strings.TrimPrefix(m[1], "Benchmark"),
		CPU:     1,
		Metrics: map[string]Measurement{},
	}
	// m[2] and m[3] matched \d+ in benchLine, so these cannot fail.
	if m[2] != "" {
		r.CPU, _ = strconv.Atoi(m[2])
	}
	r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
	fields := strings.Fields(m[4])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false // malformed pair: not a benchmark line after all
		}
		r.Metrics[fields[i+1]] = Measurement{Value: v, Unit: fields[i+1]}
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsnap: ")
	out := flag.String("out", "", "output path (default stdout)")
	flag.Parse()

	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			results = append(results, r)
		} else if strings.TrimSpace(line) != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines on stdin (run with: go test -bench ... | benchsnap)")
	}
	// Deterministic order regardless of package interleaving.
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })

	snap := Snapshot{Schema: "jag-bench/v1", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Results: results}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(results))
}
