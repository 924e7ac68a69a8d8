package lint

import (
	"go/token"
	"regexp"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment. used is shared
// between the two lines the directive covers, so the stale-suppression
// report can tell whether the directive earned its keep during a run.
type ignoreDirective struct {
	check  string
	reason string
	pos    token.Position
	used   *bool
}

// ignoreIndex maps file → line → directives active for that line.
type ignoreIndex map[string]map[int][]*ignoreDirective

var ignoreRe = regexp.MustCompile(`^//lint:ignore(\s+(\S+))?(\s+(\S.*))?$`)

// parseIgnore parses one comment's text as a //lint:ignore directive.
// ok is false when the comment is not a directive at all; malformed is
// true when it starts like one but is missing the check name or the
// reason. This is a pure function so it can be fuzzed directly.
func parseIgnore(text string) (check, reason string, ok, malformed bool) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "//lint:ignore") {
		return "", "", false, false
	}
	m := ignoreRe.FindStringSubmatch(text)
	if m == nil || m[2] == "" || strings.TrimSpace(m[4]) == "" {
		return "", "", false, true
	}
	return m[2], strings.TrimSpace(m[4]), true, false
}

// collectIgnores scans every comment in the package for //lint:ignore
// directives. Malformed directives (missing check name or reason) are
// returned as findings themselves: a suppression with a typo is exactly
// the silent exception this suite exists to prevent. all lists each
// well-formed directive once, for stale-suppression reporting.
func collectIgnores(pkg *Package) (idx ignoreIndex, all []*ignoreDirective, malformed []Finding) {
	idx = ignoreIndex{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				pos := pkg.Fset.Position(c.Pos())
				check, reason, ok, bad := parseIgnore(text)
				if bad {
					malformed = append(malformed, Finding{
						Pos:     pos,
						Check:   "ignore",
						Message: "malformed directive: want //lint:ignore <check> <reason>",
					})
					continue
				}
				if !ok {
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*ignoreDirective{}
					idx[pos.Filename] = byLine
				}
				d := &ignoreDirective{check: check, reason: reason, pos: pos, used: new(bool)}
				all = append(all, d)
				// A directive suppresses matching findings on its own line
				// (end-of-line comment) and on the line below (comment
				// above the statement).
				byLine[pos.Line] = append(byLine[pos.Line], d)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], d)
			}
		}
	}
	return idx, all, malformed
}

// suppresses reports whether a directive covers the finding, marking
// the directive used when it does.
func (idx ignoreIndex) suppresses(f Finding) bool {
	hit := false
	for _, d := range idx[f.Pos.Filename][f.Pos.Line] {
		if d.check == f.Check {
			*d.used = true
			hit = true
		}
	}
	return hit
}
