// flexran-exp regenerates the tables and figures of the FlexRAN paper's
// evaluation (§5) and use cases (§6). Each experiment prints a report
// shaped like the corresponding artifact; `-list` prints the ids, which
// name the paper's figures and tables.
//
// Usage:
//
//	flexran-exp                  # run everything at full scale
//	flexran-exp -exp fig7a       # one experiment
//	flexran-exp -scale 0.25      # shorter measurement windows
//	flexran-exp -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flexran/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (empty = all)")
	scale := flag.Float64("scale", 1.0, "measurement window scale (1.0 = paper duration)")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *exp != "" {
		res, err := experiments.Run(*exp, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res)
		return
	}
	if err := experiments.RunAll(os.Stdout, *scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
