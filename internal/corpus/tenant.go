package corpus

import (
	"fmt"
	"strings"

	"sqlcheck/internal/xrand"
)

// tenantDDL creates the four tables of a tenant database. Their data
// trips the data rules: list-like text (multi-valued attribute),
// numbers and dates stored as text (incorrect data type), and a
// functional dependency between non-key columns (denormalized table).
var tenantDDL = [...]string{
	"CREATE TABLE customers (customer_id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, tags TEXT, zip VARCHAR(10), city VARCHAR(30))",
	"CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, amount TEXT, status VARCHAR(12), placed VARCHAR(20))",
	"CREATE TABLE products (product_id INT PRIMARY KEY, title VARCHAR(60), category VARCHAR(20), category_code VARCHAR(8), price TEXT)",
	"CREATE TABLE events (event_id INT PRIMARY KEY, customer_id INT, kind VARCHAR(16), labels TEXT, qty TEXT)",
}

var tenantTables = [...]string{"customers", "orders", "products", "events"}

// TenantFixture renders the script that registers a tenant database:
// the four tables of tenantDDL with rows rows each, inserted by
// multi-row INSERT statements of chunk rows. At 4000 rows and 250-row
// chunks it has the shape of the end-to-end benchmark's tenant-data
// fixtures: 68 statements, about 0.8 MB.
func TenantFixture(rows, chunk int, seed uint64) string {
	r := xrand.New(seed)
	var b strings.Builder
	for t, ddl := range tenantDDL {
		b.WriteString(ddl)
		b.WriteString(";\n")
		for lo := 0; lo < rows; lo += chunk {
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tenantTables[t])
			for id := lo; id < min(lo+chunk, rows); id++ {
				if id > lo {
					b.WriteString(", ")
				}
				tenantRow(&b, r, t, id, rows)
			}
			b.WriteString(";\n")
		}
	}
	return b.String()
}

// tenantRow renders one VALUES tuple of table t.
func tenantRow(b *strings.Builder, r *xrand.Rand, t, id, rows int) {
	list := func(prefix string) string {
		parts := make([]string, 2+r.Intn(3))
		for i := range parts {
			parts[i] = fmt.Sprintf("%s%d", prefix, r.Intn(40))
		}
		return strings.Join(parts, ",")
	}
	switch t {
	case 0:
		zip := r.Intn(60)
		fmt.Fprintf(b, "(%d, 'name%d', '%s', 'Z%04d', 'city%d')", id, r.Intn(100000), list("tag"), zip, zip%12)
	case 1:
		fmt.Fprintf(b, "(%d, %d, '%d.%02d', 'status%d', '2023-%02d-%02d')", id, r.Intn(rows),
			r.Intn(900)+10, r.Intn(100), r.Intn(4), 1+r.Intn(12), 1+r.Intn(28))
	case 2:
		c := r.Intn(10)
		fmt.Fprintf(b, "(%d, 'product%d', 'category%d', 'C%03d', '%d.99')", id, r.Intn(100000), c, c*7, r.Intn(200))
	default:
		fmt.Fprintf(b, "(%d, %d, 'kind%d', '%s', '%d')", id, r.Intn(rows), r.Intn(4), list("l"), 1+r.Intn(20))
	}
}
