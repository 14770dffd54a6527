package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ltqp/internal/rdf"
	"ltqp/internal/solidbench"
)

// answer is the expected solution multiset of one Discover query, as
// canonical row keys (see rowKey) with their multiplicities.
type answer struct {
	vars []string
	rows map[string]int
	size int
}

func newAnswer(vars ...string) *answer { return &answer{vars: vars, rows: map[string]int{}} }

func (a *answer) add(terms ...rdf.Term) {
	a.rows[termsKey(terms)]++
	a.size++
}

// termKey renders a term canonically. Simple literals and xsd:string
// literals are the same RDF term, so both render without a datatype.
func termKey(t rdf.Term) string {
	switch t.Kind {
	case rdf.TermIRI:
		return "<" + t.Value + ">"
	case rdf.TermBlank:
		return "_:" + t.Value
	case rdf.TermLiteral:
		s := strconv.Quote(t.Value)
		switch {
		case t.Language != "":
			return s + "@" + strings.ToLower(t.Language)
		case t.Datatype != "" && t.Datatype != rdf.XSDString:
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	default:
		return "UNDEF"
	}
}

func termsKey(ts []rdf.Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = termKey(t)
	}
	return strings.Join(parts, "\t")
}

// rowKey renders an engine solution over the answer's variables.
func (a *answer) rowKey(b rdf.Binding) string {
	ts := make([]rdf.Term, len(a.vars))
	for i, v := range a.vars {
		ts[i] = b[v]
	}
	return termsKey(ts)
}

// check compares the rows a query returned with the answer. A query read to
// its end must return exactly the answer as a multiset; a first page of k
// rows must hold min(k, |answer|) rows, each drawn from the answer.
func (a *answer) check(got []string, page int) error {
	want := a.size
	if page > 0 && page < want {
		want = page
	}
	if len(got) != want {
		return fmt.Errorf("%d rows, want %d", len(got), want)
	}
	seen := make(map[string]int, len(got))
	for _, k := range got {
		seen[k]++
		if seen[k] > a.rows[k] {
			return fmt.Errorf("row %s not in the answer (or returned too often)", k)
		}
	}
	return nil
}

// referenceAnswer computes the answer of "Discover <shape>.<variant>"
// straight from the generator's structs. It shares no parser, planner,
// store or executor with the engine: the only engine code it touches is
// the generator's own IRI and literal constructors, the same ones that
// minted the pods' documents.
func referenceAnswer(ds *solidbench.Dataset, shape, variant int) *answer {
	q := ds.Discover(shape, variant)
	p := q.Person
	v := solidbench.NewVocab(ds.Config.Host)
	// Messages with content: posts without an image, and all comments.
	contentOf := func(creator int, add func(id int64, date, content rdf.Term)) {
		for _, post := range ds.Posts {
			if post.Creator == creator && post.Image == "" {
				add(post.ID, rdf.DateTime(post.Creation), rdf.NewLiteral(post.Content))
			}
		}
		for _, c := range ds.Comments {
			if c.Creator == creator {
				add(c.ID, rdf.DateTime(c.Creation), rdf.NewLiteral(c.Content))
			}
		}
	}
	forumsWithPostBy := func(person int) []solidbench.Forum {
		var out []solidbench.Forum
		for _, f := range ds.Forums {
			for _, pi := range f.Posts {
				if ds.Posts[pi].Creator == person {
					out = append(out, f)
					break
				}
			}
		}
		return out
	}
	distinct := func(a *answer, terms ...rdf.Term) {
		if a.rows[termsKey(terms)] == 0 {
			a.add(terms...)
		}
	}

	switch shape {
	case 1:
		a := newAnswer("messageId", "messageCreationDate", "messageContent")
		for _, post := range ds.Posts {
			if post.Creator == p && post.Image == "" {
				a.add(rdf.Long(post.ID), rdf.DateTime(post.Creation), rdf.NewLiteral(post.Content))
			}
		}
		return a
	case 2:
		a := newAnswer("messageId", "messageCreationDate", "messageContent")
		contentOf(p, func(id int64, date, content rdf.Term) { a.add(rdf.Long(id), date, content) })
		return a
	case 3:
		// Only posts carry tags; a tag listed twice on one post is one
		// triple of its document.
		counts := map[string]int{}
		for _, post := range ds.Posts {
			if post.Creator != p {
				continue
			}
			seen := map[string]bool{}
			for _, tag := range post.Tags {
				if !seen[tag] {
					seen[tag] = true
					counts[tag]++
				}
			}
		}
		a := newAnswer("tag", "messages")
		for tag, n := range counts {
			a.add(v.Tag(tag), rdf.Integer(int64(n)))
		}
		return a
	case 4:
		counts := map[string]int{}
		for _, c := range ds.Comments {
			if c.Creator == p {
				counts[c.Country]++
			}
		}
		a := newAnswer("location", "messages")
		for country, n := range counts {
			a.add(v.Place(country), rdf.Integer(int64(n)))
		}
		return a
	case 5:
		// Only posts carry a locationIP.
		a := newAnswer("locationIp")
		for _, post := range ds.Posts {
			if post.Creator == p {
				distinct(a, rdf.NewLiteral(post.IP))
			}
		}
		return a
	case 6:
		a := newAnswer("forumId", "forumTitle")
		for _, f := range forumsWithPostBy(p) {
			distinct(a, rdf.Long(f.ID), rdf.NewLiteral(f.Title))
		}
		return a
	case 7:
		a := newAnswer("forumTitle", "moderator")
		for _, f := range forumsWithPostBy(p) {
			distinct(a, rdf.NewLiteral(f.Title), rdf.NewIRI(ds.WebID(f.Moderator)))
		}
		return a
	case 8:
		creators := map[int]bool{}
		for _, l := range ds.Likes {
			if l.Person != p {
				continue
			}
			if l.Post >= 0 {
				creators[ds.Posts[l.Post].Creator] = true
			} else {
				creators[ds.Comments[l.Comment].Creator] = true
			}
		}
		ordered := make([]int, 0, len(creators))
		for c := range creators {
			ordered = append(ordered, c)
		}
		sort.Ints(ordered)
		a := newAnswer("creator", "messageContent")
		for _, c := range ordered {
			creator := rdf.NewIRI(ds.WebID(c))
			contentOf(c, func(_ int64, _, content rdf.Term) { distinct(a, creator, content) })
		}
		return a
	}
	panic(fmt.Sprintf("no reference answer for Discover shape %d", shape))
}
