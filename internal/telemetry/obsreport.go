package telemetry

// Host-observability section of the HTML report (wardenreport -metrics):
// cache hit-rates parsed from a Prometheus text scrape.

import (
	"fmt"
	"html/template"
	"io"
)

// CacheView is one cache's hit-rate summary.
type CacheView struct {
	Name    string
	Hits    uint64
	Misses  uint64
	Entries uint64
}

// HitRate returns hits/(hits+misses), 0 when no lookups happened.
func (c CacheView) HitRate() float64 {
	tot := c.Hits + c.Misses
	if tot == 0 {
		return 0
	}
	return float64(c.Hits) / float64(tot)
}

// ObsView is the observability section: cache stats.
type ObsView struct {
	Source string // where the scrape came from (path or URL)
	Caches []CacheView
}

var obsTmpl = template.Must(template.New("obs").Funcs(template.FuncMap{
	"pct": func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) },
}).Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>` + reportCSS + `</style></head><body>
<h1>{{.Title}}</h1>
{{with .Obs}}
<p class="meta">scraped from {{.Source}}</p>
{{if .Caches}}
<h2>Caches</h2>
<table><thead><tr><th>cache</th><th>hits</th><th>misses</th><th>hit rate</th><th>entries</th></tr></thead><tbody>
{{range .Caches}}<tr><td>{{.Name}}</td><td>{{.Hits}}</td><td>{{.Misses}}</td>
<td class="{{if ge .HitRate 0.5}}good{{else}}bad{{end}}">{{pct .HitRate}}</td><td>{{.Entries}}</td></tr>
{{end}}</tbody></table>
{{end}}
{{end}}
</body></html>
`))

// WriteObsHTML renders the observability section as a self-contained
// document, same styling as the run reports.
func WriteObsHTML(w io.Writer, title string, obs *ObsView) error {
	return obsTmpl.Execute(w, struct {
		Title string
		Obs   *ObsView
	}{Title: title, Obs: obs})
}
