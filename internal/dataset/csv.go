package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes the dataset in a simple long format:
//
//	user,model,citations,year,quality,cost
//
// one row per (user, model) pair, preceded by a header.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"user", "model", "citations", "year", "quality", "cost"}); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for i, u := range d.Users {
		for j, m := range d.Models {
			rec := []string{
				u, m.Name,
				strconv.Itoa(m.Citations),
				strconv.Itoa(m.Year),
				strconv.FormatFloat(d.Quality[i][j], 'g', 17, 64),
				strconv.FormatFloat(d.Cost[i][j], 'g', 17, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("dataset: write row (%s,%s): %w", u, m.Name, err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
