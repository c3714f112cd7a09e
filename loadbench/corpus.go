package main

import (
	"fmt"
	"hash/maphash"
	"math/rand"

	"repro/internal/accessrule"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/workload"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// subject is one access profile of a workload: its rule text and the
// queries it asks ("" is the full authorized view).
type subject struct {
	name    string
	rules   string
	queries []string
}

// Permissive profiles see most of a folder; they ask for the full view.
var permissive = []subject{
	{"nurse", "default +\n- //ssn\n- //report", []string{""}},
	{"doctor", "default +\n- //ssn", []string{""}},
	{"audit", "default +\n- //contact", []string{""}},
	{"admin", "default +", []string{""}},
}

// Restrictive profiles see a sliver of a folder; they ask selective
// queries inside it.
var restrictive = []subject{
	{"triage", "default -\n+ //emergency", []string{"//emergency", "//emergency/allergy"}},
	{"billing", "default -\n+ //patient/name\n+ //visit/date", []string{"//visit/date", "//patient/name"}},
	{"emergency", "default -\n+ //emergency\n+ //patient/name", []string{"//patient/name", "//emergency/bloodtype"}},
	{"research", "default -\n+ //diagnosis", []string{"//diagnosis", "//visit/diagnosis"}},
}

// corpus is the generated input of one run: the plaintext folders, the
// subjects' rule sets and the request mix.
type corpus struct {
	folders  []*xmlstream.Node
	subjects []subject
	rules    map[string]*accessrule.RuleSet // by subject name
	queries  map[string]*xpath.Path         // parsed, by expression
}

// docID names folder f in the store.
func docID(f int) string { return fmt.Sprintf("folder-%03d", f) }

// newCorpus generates the folders and rule sets of a workload from the
// seed: the same seed gives the same inputs.
func newCorpus(seed int64, sp *spec) (*corpus, error) {
	c := &corpus{
		subjects: sp.subjects,
		rules:    make(map[string]*accessrule.RuleSet),
		queries:  make(map[string]*xpath.Path),
	}
	rng := rand.New(rand.NewSource(seed))
	for f := 0; f < sp.folders; f++ {
		c.folders = append(c.folders, workload.MedicalFolder(workload.MedicalConfig{
			Seed:             rng.Int63(),
			Patients:         sp.patients,
			VisitsPerPatient: sp.visits,
		}))
	}
	for _, s := range sp.subjects {
		rs, err := accessrule.ParseSet("subject " + s.name + "\n" + s.rules)
		if err != nil {
			return nil, fmt.Errorf("rules of %s: %w", s.name, err)
		}
		c.rules[s.name] = rs
		for _, q := range s.queries {
			if q == "" {
				continue
			}
			p, err := xpath.Parse(q)
			if err != nil {
				return nil, fmt.Errorf("query %q: %w", q, err)
			}
			c.queries[q] = p
		}
	}
	return c, nil
}

// request is one query a client sends.
type request struct {
	subject string
	folder  int
	query   string
}

// viewKey names an expected view.
type viewKey struct {
	request
	version uint32
}

// hashSeed fixes the view hash for the whole process.
var hashSeed = maphash.MakeSeed()

// hashView fingerprints a rendered view; the oracle keeps fingerprints,
// not views, so it adds almost nothing to the live heap it measures.
func hashView(xml string) uint64 { return maphash.String(hashSeed, xml) }

// expectedView renders what the card must return for req over tree:
// core.Filter on the plaintext with the subject's rules and the query,
// serialized exactly as the gateway serializes a result.
func (c *corpus) expectedView(tree *xmlstream.Node, req request) (string, error) {
	view, _, err := core.Filter(tree.Events(), c.rules[req.subject], c.queries[req.query])
	if err != nil {
		return "", fmt.Errorf("oracle %s/%s %q: %w", req.subject, docID(req.folder), req.query, err)
	}
	return (&proxy.Result{Tree: view}).XML(), nil
}

// requestsOf lists every (subject, folder, query) a client owning the
// given folders may send.
func (c *corpus) requestsOf(folders []int) []request {
	var out []request
	for _, f := range folders {
		for _, s := range c.subjects {
			for _, q := range s.queries {
				out = append(out, request{subject: s.name, folder: f, query: q})
			}
		}
	}
	return out
}

// edit is one re-publication step: new diagnosis and report text for a
// few visits of one folder.
type edit struct {
	changes []visitChange
}

type visitChange struct {
	patient, visit int // indexes among the folder's patient / visit elements
	diagnosis      string
	report         string
}

var editDiagnoses = []string{"flu", "fracture", "asthma", "allergy", "migraine", "diabetes", "hypertension", "sprain"}

// newEdit draws an edit touching about pct percent of the folder's
// visits, at least one.
func newEdit(rng *rand.Rand, tree *xmlstream.Node, pct float64) edit {
	type ref struct{ p, v int }
	var visits []ref
	for p, patient := range tree.Find("patient") {
		for v := range patient.Find("visit") {
			visits = append(visits, ref{p, v})
		}
	}
	n := int(float64(len(visits)) * pct / 100)
	if n < 1 {
		n = 1
	}
	var e edit
	for _, i := range rng.Perm(len(visits))[:n] {
		words := make([]byte, 0, 160)
		for w := 20 + rng.Intn(20); w > 0; w-- {
			words = append(words, "abcdefghijklmnopqrstuvwxyz"[rng.Intn(26)])
			if w%5 == 0 {
				words = append(words, ' ')
			}
		}
		e.changes = append(e.changes, visitChange{
			patient:   visits[i].p,
			visit:     visits[i].v,
			diagnosis: editDiagnoses[rng.Intn(len(editDiagnoses))],
			report:    string(words),
		})
	}
	return e
}

// apply performs the edit on a folder tree in place.
func (e edit) apply(tree *xmlstream.Node) {
	patients := tree.Find("patient")
	for _, ch := range e.changes {
		visit := patients[ch.patient].Find("visit")[ch.visit]
		setText(visit, "diagnosis", ch.diagnosis)
		setText(visit, "report", ch.report)
	}
}

// setText replaces the text of the named child element.
func setText(n *xmlstream.Node, name, text string) {
	for _, ch := range n.Children {
		if ch.Name == name {
			ch.Children = []*xmlstream.Node{{Text: text}}
			return
		}
	}
}

// cloneTree deep-copies a folder so the publisher can edit its own copy.
func cloneTree(n *xmlstream.Node) *xmlstream.Node {
	c := *n
	c.Children = make([]*xmlstream.Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = cloneTree(ch)
	}
	return &c
}
