// Command figures regenerates every figure and table dataset in the
// paper in one run, printing plottable CSV/text blocks. It is the
// one-stop reproduction entry point.
//
// Usage:
//
//	figures [-fig 1|2|3|4|5|6|table1|all] [-reps N] [-seed N] [-parallel N] [-precision P]
//
// -precision switches fig 6 to the adaptive sampling engine (see
// cloudbench): cells repeat until the answer is tight instead of a
// fixed -reps budget.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
)

// figures delegates to cloudbench so the two stay consistent; it
// exists because the paper's artifacts are indexed by figure number.
func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate (1..6, table1, all)")
		reps      = flag.Int("reps", 8, "repetitions for fig 6 (paper uses 24)")
		seed      = flag.Int64("seed", 42, "base seed")
		parallel  = flag.Int("parallel", 0, "concurrent experiment cells (passed through to cloudbench)")
		precision = flag.Float64("precision", 0, "adaptive precision target for fig 6 (passed through to cloudbench; 0 = fixed -reps)")
	)
	flag.Parse()

	experiments := map[string]string{
		"1": "fig1", "2": "discover", "3": "fig3",
		"4": "fig4", "5": "fig5", "6": "fig6",
		"table1": "table1", "all": "all",
	}
	exp, ok := experiments[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}

	self, err := os.Executable()
	if err != nil {
		self = ""
	}
	// Prefer a sibling cloudbench binary; fall back to `go run`.
	args := []string{
		"-experiment", exp,
		"-reps", fmt.Sprint(*reps),
		"-seed", fmt.Sprint(*seed),
		"-parallel", fmt.Sprint(*parallel),
	}
	if *precision > 0 {
		args = append(args, "-precision", fmt.Sprint(*precision))
	}
	var cmd *exec.Cmd
	if sibling := siblingCloudbench(self); sibling != "" {
		cmd = exec.Command(sibling, args...)
	} else {
		cmd = exec.Command("go", append([]string{"run", "repro/cmd/cloudbench"}, args...)...)
	}
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func siblingCloudbench(self string) string {
	if self == "" {
		return ""
	}
	for i := len(self) - 1; i >= 0; i-- {
		if self[i] == '/' || self[i] == '\\' {
			candidate := self[:i+1] + "cloudbench"
			if _, err := os.Stat(candidate); err == nil {
				return candidate
			}
			return ""
		}
	}
	return ""
}
