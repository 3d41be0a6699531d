package join

import (
	"treebench/internal/index"
)

// runVNOJOIN is the value-based counterpart of NOJOIN, implemented to
// reproduce the result the paper builds on ("In [14, 4], the authors
// compare pointer-based against value-based algorithms and favors the
// former. In this paper, we build on these results."): instead of
// dereferencing the child's physical parent pointer, each child carries a
// foreign-key *value* (the Derby schema's random_integer equals its
// provider's upin) that must be resolved through the parent's key index —
// a B+-tree descent per child where the pointer join pays a single page
// access.
//
//	For all patients whose mrn < k1                 /* index scan */
//	  look up the provider with upin = pa.random_integer  /* index descent */
//	  if p.upin < k2 add f(p,pa) to the result
func runVNOJOIN(env *Env, q Query) (*Result, error) {
	db := env.DB
	ai, err := attrs(env)
	if err != nil {
		return nil, err
	}
	mrnIdx, err := indexOrErr(env, env.Child.Name, env.ChildKeyAttr)
	if err != nil {
		return nil, err
	}
	upinIdx, err := indexOrErr(env, env.Parent.Name, env.ParentKeyAttr)
	if err != nil {
		return nil, err
	}
	fkIdx := env.Child.Class.AttrIndex(env.ChildFKAttr)
	if fkIdx < 0 {
		return nil, errNoForeignKey(env)
	}
	meter := db.Meter
	k1, k2 := q.K1, q.K2
	res := &Result{}
	err = scanRows(db, mrnIdx, 1, k1, func(e index.Entry) (bool, error) {
		pa, err := db.Handles.Get(e.Rid)
		if err != nil {
			return false, err
		}
		defer db.Handles.Unref(pa)
		fkV, err := db.Handles.Attr(pa, fkIdx)
		if err != nil {
			return false, err
		}
		// The value-based resolution: descend the parent key index.
		meter.Compare()
		if fkV.Int >= k2 {
			return true, nil // the key value IS the predicate attribute
		}
		rids, err := upinIdx.Backend.Lookup(db.Client, fkV.Int)
		if err != nil {
			return false, err
		}
		for _, prid := range rids {
			ph, err := db.Handles.Get(prid)
			if err != nil {
				return false, err
			}
			if err := db.Handles.CheckAttr(ph, ai.provName); err != nil {
				db.Handles.Unref(ph)
				return false, err
			}
			db.Handles.Unref(ph)
			if _, err := db.Handles.Attr(pa, ai.patAge); err != nil {
				return false, err
			}
			emit(meter, res)
		}
		return true, nil
	})
	return res, err
}

func errNoForeignKey(env *Env) error {
	return errFK{attr: env.ChildFKAttr, class: env.Child.Class.Name}
}

type errFK struct{ attr, class string }

func (e errFK) Error() string {
	return "join: VNOJOIN needs a foreign-key value attribute; class " + e.class + " has no attribute \"" + e.attr + "\""
}
