package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs every workload n times in child processes, one at a
// time, reversing the workload order on every other round, and prints
// each end-to-end metric's median and quartiles next to its bound; only,
// when not empty, restricts the runs to one workload. The
// spread is the distance between the first and third quartiles as a
// share of the median.
func runSteady(n int, seed int64, seconds float64, only string) error {
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	shares := map[string][]float64{}
	for round := 0; round < n; round++ {
		order := append([]string(nil), workloads...)
		if only != "" {
			order = []string{only}
		}
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		s := seed + int64(round)
		for _, w := range order {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect", w, s)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			shares[w] = append(shares[w], float64(res.Failed)/float64(res.Attempted))
			fmt.Fprintf(os.Stderr, "round %d %s seed %d done\n", round, w, s)
		}
	}
	fmt.Printf("%-14s %-22s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloads {
		names := make([]string, 0, len(values[w]))
		for name := range values[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q1, med, q3 := quartiles(values[w][name])
			fmt.Printf("%-14s %-22s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", w, name, q1, med, q3, (q3-q1)/med, bounds[name], formatValues(values[w][name]))
		}
		if len(shares[w]) > 0 {
			fmt.Printf("%-14s %-22s %v\n", w, "failed share", shares[w])
		}
	}
	return nil
}

// formatValues lists run values in run order, four significant digits.
func formatValues(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 4, 64))
	}
	return b.String()
}

// lastResult parses the result object on the last line of out.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
