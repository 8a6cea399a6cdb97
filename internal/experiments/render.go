package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/reprolab/hirise/internal/plot"
)

// Series extracts plottable line series from a figure-style table:
// column 0 is the x axis, every other column one series. Cells that do
// not parse as numbers (e.g. "sat") become NaN gaps. It reports false
// when the table is not figure-shaped (non-numeric x, or fewer than two
// rows).
func (t *Table) Series() ([]plot.Series, bool) {
	if len(t.Rows) < 2 || len(t.Header) < 2 {
		return nil, false
	}
	x := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		v, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, false
		}
		x[i] = v
	}
	series := make([]plot.Series, 0, len(t.Header)-1)
	for c := 1; c < len(t.Header); c++ {
		s := plot.Series{Name: t.Header[c], X: x, Y: make([]float64, len(t.Rows))}
		numeric := 0
		for i, row := range t.Rows {
			if c >= len(row) {
				s.Y[i] = math.NaN()
				continue
			}
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				s.Y[i] = math.NaN()
				continue
			}
			s.Y[i] = v
			numeric++
		}
		if numeric >= 2 {
			series = append(series, s)
		}
	}
	return series, len(series) > 0
}

// RenderPlot draws the table's series as an ASCII chart, or reports
// false if the table is not figure-shaped.
func (t *Table) RenderPlot(w io.Writer, width, height int) (bool, error) {
	series, ok := t.Series()
	if !ok {
		return false, nil
	}
	return true, plot.Render(w, t.Title, series, width, height)
}

// WriteCSV writes the table as CSV: a header row then data rows. Notes
// are not emitted (CSV is for plotting pipelines).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the stable JSON shape of a Table.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// MarshalJSON implements json.Marshaler with a stable field layout.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{
		ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Table) UnmarshalJSON(data []byte) error {
	var v tableJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*t = Table{ID: v.ID, Title: v.Title, Header: v.Header, Rows: v.Rows, Notes: v.Notes}
	return nil
}

// WriteJSON writes the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Formats lists the renderings Render accepts.
var Formats = []string{"text", "csv", "json"}

// Render writes the table in one of Formats: the aligned text table,
// CSV, or indented JSON.
func (t *Table) Render(w io.Writer, format string) error {
	switch format {
	case "text":
		t.Fprint(w)
		return nil
	case "csv":
		return t.WriteCSV(w)
	case "json":
		return t.WriteJSON(w)
	}
	return fmt.Errorf("unknown format %q (want one of %v)", format, Formats)
}
