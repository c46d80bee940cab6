// Paperwalkthrough reproduces Figures 2 and 3 of the paper on their
// example strings: it runs Algorithm MS and Algorithm PDMS on the same
// twelve strings over three PEs and renders the outputs the way the paper
// draws them — characters covered by LCP compression shown as "-", and the
// characters PDMS never transmits shown as "·".
//
// Run with: go run ./examples/paperwalkthrough [-algo ms|pdms]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"dss/stringsort"
)

// The per-PE inputs of Figure 2.
var inputs = [][][]byte{
	{[]byte("alpha"), []byte("order"), []byte("alps"), []byte("algae")},
	{[]byte("sorter"), []byte("snow"), []byte("algo"), []byte("sorbet")},
	{[]byte("sorted"), []byte("orange"), []byte("soul"), []byte("organ")},
}

func main() {
	algo := flag.String("algo", "both", "ms, pdms or both")
	flag.Parse()

	if *algo == "ms" || *algo == "both" {
		walkthroughMS()
	}
	if *algo == "pdms" || *algo == "both" {
		walkthroughPDMS()
	}
}

func walkthroughMS() {
	fmt.Println("=== Figure 2: Algorithm MS on the example strings ===")
	printInputs()

	res, err := stringsort.Sort(inputs, stringsort.Config{
		Algorithm: stringsort.MS,
		Validate:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nStep 4 result: merged fragments with LCP arrays.")
	fmt.Println("Characters shown as '-' were never retransmitted within a")
	fmt.Println("sorted run thanks to LCP compression (Step 3):")
	for pe, frag := range res.PEs {
		fmt.Printf("  PE %d:\n", pe)
		for i, s := range frag.Strings {
			h := 0
			if i > 0 && frag.LCPs != nil {
				h = int(frag.LCPs[i])
			}
			fmt.Printf("    %s%s\n", strings.Repeat("-", h), s[h:])
		}
	}
	fmt.Printf("\ncommunication: %.1f bytes per string\n", res.Stats.BytesPerString)
}

func walkthroughPDMS() {
	fmt.Println("\n=== Figure 3: Algorithm PDMS on the example strings ===")
	printInputs()

	// In RAM, Sort returns the input's lines. Under a memory budget each PE
	// writes what its merge received into a run file: the prefixes, each
	// with the origin of its string.
	res, err := stringsort.Sort(inputs, stringsort.Config{
		Algorithm: stringsort.PDMS,
		Validate:  true,
		MemBudget: 1 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(filepath.Dir(res.PEs[0].RunFile))

	fmt.Println("\nStep 3+4 result: only the approximate distinguishing")
	fmt.Println("prefixes travel; characters shown as '·' stayed at home:")
	for pe, frag := range res.PEs {
		fmt.Printf("  PE %d:\n", pe)
		if err := printPrefixes(frag.RunFile); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ncommunication: %.1f bytes per string (vs %d-char strings)\n",
		res.Stats.BytesPerString, len("sorter"))
}

// printPrefixes prints the prefixes of one PE's run file, each padded with
// '·' to the length of the input string its origin names.
func printPrefixes(path string) error {
	rf, err := stringsort.OpenRun(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	for {
		prefix, _, o, ok, err := rf.Next()
		if err != nil || !ok {
			return err
		}
		omitted := len(inputs[o.PE][o.Index]) - len(prefix)
		fmt.Printf("    %s%s   (from PE %d)\n", prefix, strings.Repeat("·", omitted), o.PE)
	}
}

func printInputs() {
	fmt.Println("input:")
	for pe, ss := range inputs {
		var words []string
		for _, s := range ss {
			words = append(words, string(s))
		}
		fmt.Printf("  PE %d: %s\n", pe, strings.Join(words, " "))
	}
}
