package stringsort_test

import (
	"fmt"
	"log"
	"strings"

	"dss/stringsort"
)

// SortStrings deals the strings over the PEs, sorts them and returns them
// in order. PDMS sends only distinguishing prefixes between the PEs, but
// what comes back are the input strings themselves.
func ExampleSortStrings() {
	words := []string{"sorter", "snow", "algo", "sorbet", "alpha", "order", "alps", "algae", "sorted"}
	sorted, err := stringsort.SortStrings(words, stringsort.Config{P: 3, Algorithm: stringsort.PDMS})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(sorted, " "))
	// Output: algae algo alpha alps order snow sorbet sorted sorter
}

// EstimateDN samples the strings to estimate their average distinguishing
// prefix length D/n without sorting them, and suggests PDMS when that is a
// small part of the average string length.
func ExampleEstimateDN() {
	const p = 4
	inputs := make([][][]byte, p)
	for i := 0; i < 2000; i++ {
		// Four distinguishing characters, then a long tail shared by all.
		s := fmt.Sprintf("%04d%s", i, strings.Repeat("-", 60))
		inputs[i%p] = append(inputs[i%p], []byte(s))
	}
	est, err := stringsort.EstimateDN(inputs, 400, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("D/n below 10 of 64 characters: %v\n", est.AvgDist < 10)
	fmt.Println("suggested:", est.Suggested)
	// Output:
	// D/n below 10 of 64 characters: true
	// suggested: PDMS
}
