package corpus

import (
	"fmt"

	"sqlcheck/internal/rules"
	"sqlcheck/internal/xrand"
)

// Participant is one simulated user-study subject (paper §8.3).
type Participant struct {
	ID int
	// Skill in [0,1]: higher-skill participants inject fewer APs.
	Skill float64
	// Statements written for the 16 features of the bike e-commerce
	// application.
	Statements []string
	// Truth labels per statement.
	Truth map[int][]string
	// Engaged reports whether the participant considered suggestions
	// at all (20 of 23 did in the paper).
	Engaged bool
}

// UserStudyOptions sizes the simulation.
type UserStudyOptions struct {
	Participants int // default 23
	Features     int // default 16
	Seed         uint64
}

func (o UserStudyOptions) withDefaults() UserStudyOptions {
	if o.Participants == 0 {
		o.Participants = 23
	}
	if o.Features == 0 {
		o.Features = 16
	}
	if o.Seed == 0 {
		o.Seed = 23
	}
	return o
}

// featureTemplates are the bike e-commerce tasks; each has a clean
// realization and an AP-bearing one.
type featureTemplate struct {
	clean func(g *studyGen, f int) string
	dirty func(g *studyGen, f int) (string, []string)
}

type studyGen struct {
	r *xrand.Rand
	p int
}

func (g *studyGen) tbl(base string, f int) string {
	return fmt.Sprintf("%s_p%c_f%c", base, 'a'+byte(g.p%26), 'a'+byte(f%26))
}

var studyFeatures = []featureTemplate{
	{ // product catalog table
		clean: func(g *studyGen, f int) string {
			t := g.tbl("products", f)
			return fmt.Sprintf("CREATE TABLE %s (%s_id INT PRIMARY KEY, name VARCHAR(60) NOT NULL, price NUMERIC(10,2))", t, t)
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			t := g.tbl("products", f)
			return fmt.Sprintf("CREATE TABLE %s (name VARCHAR(60), price FLOAT)", t),
				[]string{rules.IDNoPrimaryKey, rules.IDRoundingErrors}
		},
	},
	{ // shopping cart
		clean: func(g *studyGen, f int) string {
			t := g.tbl("cart_items", f)
			return fmt.Sprintf("CREATE TABLE %s (cart_id INT, product_id INT, qty INT, PRIMARY KEY (cart_id, product_id))", t)
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			t := g.tbl("carts", f)
			return fmt.Sprintf("CREATE TABLE %s (cart_id INT PRIMARY KEY, product_ids TEXT)", t),
				[]string{rules.IDMultiValuedAttribute}
		},
	},
	{ // product search
		clean: func(g *studyGen, f int) string {
			t := g.tbl("products", f)
			return fmt.Sprintf("SELECT name, price FROM %s WHERE name LIKE 'bike%%'", t)
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			t := g.tbl("products", f)
			return fmt.Sprintf("SELECT * FROM %s WHERE name LIKE '%%bike%%'", t),
				[]string{rules.IDColumnWildcard, rules.IDPatternMatching}
		},
	},
	{ // order insertion
		clean: func(g *studyGen, f int) string {
			t := g.tbl("orders", f)
			return fmt.Sprintf("INSERT INTO %s (order_id, user_id, total) VALUES (%d, %d, 19.99)", t, g.r.Intn(9999), g.r.Intn(999))
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			t := g.tbl("orders", f)
			return fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, 19.99)", t, g.r.Intn(9999), g.r.Intn(999)),
				[]string{rules.IDImplicitColumns}
		},
	},
	{ // featured random products
		clean: func(g *studyGen, f int) string {
			t := g.tbl("products", f)
			return fmt.Sprintf("SELECT name FROM %s WHERE %s_id >= %d ORDER BY %s_id LIMIT 3", t, t, g.r.Intn(500), t)
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			t := g.tbl("products", f)
			return fmt.Sprintf("SELECT name FROM %s ORDER BY RAND() LIMIT 3", t),
				[]string{rules.IDOrderByRand}
		},
	},
	{ // user roles
		clean: func(g *studyGen, f int) string {
			t := g.tbl("roles", f)
			return fmt.Sprintf("CREATE TABLE %s (role_id INT PRIMARY KEY, role_name VARCHAR(20) NOT NULL UNIQUE)", t)
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			t := g.tbl("accounts", f)
			return fmt.Sprintf("CREATE TABLE %s (acct_id INT PRIMARY KEY, role ENUM('buyer','seller','admin'))", t),
				[]string{rules.IDEnumeratedTypes}
		},
	},
	{ // customers with orders report
		clean: func(g *studyGen, f int) string {
			c, o := g.tbl("customers", f), g.tbl("orders", f)
			return fmt.Sprintf("SELECT c.name FROM %s c WHERE EXISTS (SELECT 1 FROM %s o WHERE o.cust_id = c.cust_id)", c, o)
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			c, o := g.tbl("customers", f), g.tbl("orders", f)
			return fmt.Sprintf("SELECT DISTINCT c.name FROM %s c JOIN %s o ON o.cust_id = c.cust_id", c, o),
				[]string{rules.IDDistinctJoin}
		},
	},
	{ // account credentials
		clean: func(g *studyGen, f int) string {
			t := g.tbl("credentials", f)
			return fmt.Sprintf("CREATE TABLE %s (cred_id INT PRIMARY KEY, login VARCHAR(40) NOT NULL UNIQUE, pass_hash VARCHAR(80) NOT NULL)", t)
		},
		dirty: func(g *studyGen, f int) (string, []string) {
			t := g.tbl("credentials", f)
			return fmt.Sprintf("CREATE TABLE %s (cred_id INT PRIMARY KEY, login VARCHAR(40), password VARCHAR(40))", t),
				[]string{rules.IDReadablePassword}
		},
	},
}

// UserStudy simulates the participants writing SQL for each feature.
// Statement counts per participant vary with a mean near the paper's
// 42.9 (987 statements / 23 participants).
func UserStudy(opts UserStudyOptions) []*Participant {
	opts = opts.withDefaults()
	r := xrand.New(opts.Seed)
	var out []*Participant
	for p := 0; p < opts.Participants; p++ {
		part := &Participant{
			ID:      p,
			Skill:   0.15 + 0.8*r.Float64(),
			Truth:   map[int][]string{},
			Engaged: p >= 3 || opts.Participants < 10, // 3 of 23 disengage
		}
		g := &studyGen{r: r, p: p}
		// Each participant iterates the features 2-4 times (drafts,
		// refinements), writing one statement per pass.
		passes := 2 + r.Intn(3)
		for pass := 0; pass < passes; pass++ {
			for f := 0; f < opts.Features; f++ {
				tpl := studyFeatures[f%len(studyFeatures)]
				idx := len(part.Statements)
				// Lower skill → higher chance of the AP variant.
				if r.Bool(0.75 * (1 - part.Skill)) {
					sql, truth := tpl.dirty(g, f)
					part.Statements = append(part.Statements, sql)
					part.Truth[idx] = truth
				} else {
					part.Statements = append(part.Statements, tpl.clean(g, f))
				}
			}
		}
		out = append(out, part)
	}
	return out
}
