// Command treebench-snap manages persisted Derby snapshots: the versioned
// on-disk files (DESIGN.md, "On-disk snapshot format") behind the
// content-addressed cache that treebenchd and the experiment scheduler
// warm-boot from.
//
// Usage:
//
//	treebench-snap save   [-providers N] [-avg N] [-clustering C] [-seed N] [-index-backend K] [-o FILE]
//	treebench-snap load   FILE
//	treebench-snap verify FILE...
//	treebench-snap chain  DIR
//	treebench-snap ls     [-dir DIR]
//	treebench-snap rm     [-dir DIR] [-all] [KEY|FILE ...]
//
// save generates the configured database, prints §3.2's loading statistics
// (simulated load time, commits, relocations, page and RPC traffic) and
// writes it — to -o, or into the cache directory under its content
// address. load rebuilds a snapshot from a file and proves it serves
// queries (a dry run of treebenchd's warm boot). verify checks every
// section checksum without loading; for a snapshot committed by the write
// path it also prints the lineage section (chain version, parent, delta
// pages, WAL offset). ls lists the cache, with lineage columns for
// chain-committed entries; rm removes entries by key prefix or path.
//
// chain walks a treebenchd -wal store directory read-only: it verifies
// the base snapshot's checksums, then scans the write-ahead log record by
// record — CRCs, version continuity from the base, decodable commit
// bodies — printing one line per commit and reporting (without
// truncating) a torn tail. It is the offline fsck for the write path.
//
// The cache directory is -dir, else $TREEBENCH_SNAPSHOT_DIR, else the
// user cache directory (persist.DefaultDir).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"treebench/internal/cli"
	"treebench/internal/derby"
	"treebench/internal/persist"
	"treebench/internal/session"
	"treebench/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "save":
		err = cmdSave(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "chain":
		err = cmdChain(os.Args[2:])
	case "ls":
		err = cmdLs(os.Args[2:])
	case "rm":
		err = cmdRm(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "treebench-snap: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "treebench-snap:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  treebench-snap save   [-providers N] [-avg N] [-clustering C] [-seed N] [-index-backend K] [-o FILE]
  treebench-snap load   FILE
  treebench-snap verify FILE...
  treebench-snap chain  DIR
  treebench-snap ls     [-dir DIR]
  treebench-snap rm     [-dir DIR] [-all] [KEY|FILE ...]`)
}

func dirFlag(fs *flag.FlagSet) *string {
	return fs.String("dir", "", "snapshot cache directory (default $TREEBENCH_SNAPSHOT_DIR or the user cache dir)")
}

func resolveDir(dir string) (string, error) {
	if dir != "" {
		return dir, nil
	}
	return persist.DefaultDir()
}

func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	shape := cli.ShapeFlags(fs, 200, 50)
	ixBackend := cli.BackendFlag(fs)
	out := fs.String("o", "", "output file (default: cache dir under the content address)")
	dir := dirFlag(fs)
	fs.Parse(args)

	cfg, err := shape.Config()
	if err != nil {
		return err
	}
	if cfg.IndexBackend, err = cli.Backend(*ixBackend); err != nil {
		return err
	}

	path := *out
	if path == "" {
		d, err := resolveDir(*dir)
		if err != nil {
			return err
		}
		path = filepath.Join(d, persist.KeyFor(cfg)+".tbsp")
	}
	fmt.Printf("generating %d×%d %s database...\n", cfg.Providers, cfg.Providers*cfg.AvgPatients, cfg.Clustering)
	ds, err := derby.Generate(cfg)
	if err != nil {
		return err
	}
	n := ds.Load.Counters
	fmt.Printf("load time (simulated): %.2fs  commits: %d  relocations: %d\n",
		ds.Load.Elapsed.Seconds(), ds.Load.Commits, ds.Load.Relocations)
	fmt.Printf("traffic: %d pages written, %d log pages, %d RPCs (%.1f MB)\n",
		n.DiskWrites, n.LogPages, n.RPCs, float64(n.RPCBytes)/(1<<20))
	snap, err := ds.Freeze()
	if err != nil {
		return err
	}
	if err := persist.Save(path, snap); err != nil {
		return err
	}
	fi, _ := os.Stat(path)
	fmt.Printf("saved %s (%d pages, %d bytes)\n", path, snap.Engine.Pages(), fi.Size())
	return nil
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("load wants exactly one FILE")
	}
	path := fs.Arg(0)
	snap, err := persist.Load(path)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d pages (%.1f MiB)\n", path, snap.Engine.Pages(),
		float64(snap.Engine.Bytes())/(1<<20))
	// Prove the catalog is live: fork a session and run one query — the
	// same dry run treebenchd's warm boot amounts to.
	s := session.New(snap.Fork().DB)
	res, err := s.Execute("select count(*) from pa in Patients")
	if err != nil {
		return fmt.Errorf("probe query: %w", err)
	}
	session.WriteResult(os.Stdout, session.ToWire(res, 1), 1)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("verify wants at least one FILE")
	}
	for _, path := range fs.Args() {
		m, err := persist.Verify(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: ok (v%d, %d pages, %d×%d %s, backend %s)\n",
			path, m.Version, m.Pages, m.Providers, m.Patients, m.Clustering, m.Backend)
		if m.Chain.Version > 0 {
			fmt.Printf("  chain v%d ← v%d, %d delta pages, wal offset %d\n",
				m.Chain.Version, m.Chain.Parent, m.Chain.DeltaPages, m.Chain.WalOff)
		}
		for _, s := range m.Sections {
			fmt.Printf("  %-11s %12d bytes  crc %08x\n", s.Name, s.Length, s.CRC)
		}
	}
	return nil
}

// cmdChain is the offline fsck for a -wal store directory: verify the
// base snapshot, then walk the WAL read-only, checking each commit record
// decodes and the version sequence is contiguous from the base. Records
// at or below the base version are compaction leftovers (a crash between
// base publish and WAL reset) and count as skipped, exactly as boot-time
// recovery treats them.
func cmdChain(args []string) error {
	fs := flag.NewFlagSet("chain", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("chain wants exactly one store DIR")
	}
	dir := fs.Arg(0)
	base := filepath.Join(dir, "base.tbsp")
	m, err := persist.Verify(base)
	if err != nil {
		return fmt.Errorf("%s: %w", base, err)
	}
	fmt.Printf("%s: ok (base v%d, %d pages, %d×%d %s)\n",
		base, m.Chain.Version, m.Pages, m.Providers, m.Patients, m.Clustering)

	cur := m.Chain.Version
	skipped := 0
	walPath := filepath.Join(dir, "wal")
	rec, err := wal.Scan(walPath, func(off int64, payload []byte) error {
		r, err := persist.DecodeCommit(payload)
		if err != nil {
			return err
		}
		if r.Version <= m.Chain.Version {
			skipped++
			fmt.Printf("  wal@%-8d v%-4d wave %-4d %4d delta pages  (≤ base, skipped)\n",
				off, r.Version, r.Wave, len(r.OverlayIDs)+len(r.AppendedPages))
			return nil
		}
		if r.Version != cur+1 {
			return fmt.Errorf("commit v%d follows v%d: chain gap", r.Version, cur)
		}
		cur = r.Version
		evolved := ""
		if r.State != nil && len(r.AppendedPages) > 0 {
			evolved = "  (growth wave)"
		}
		fmt.Printf("  wal@%-8d v%-4d wave %-4d %4d delta pages%s\n",
			off, r.Version, r.Wave, len(r.OverlayIDs)+len(r.AppendedPages), evolved)
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", walPath, err)
	}
	fmt.Printf("%s: %d commits (%d skipped), head v%d, tail at %d\n",
		walPath, rec.Records, skipped, cur, rec.Tail)
	if rec.Torn != nil {
		fmt.Printf("torn tail (would be truncated on next boot): %v\n", rec.Torn)
	}
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := dirFlag(fs)
	fs.Parse(args)
	d, err := resolveDir(*dir)
	if err != nil {
		return err
	}
	entries, err := filepath.Glob(filepath.Join(d, "*.tbsp"))
	if err != nil {
		return err
	}
	sort.Strings(entries)
	if len(entries) == 0 {
		fmt.Printf("%s: no snapshots\n", d)
		return nil
	}
	for _, path := range entries {
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		m, err := persist.Inspect(path)
		if err != nil {
			fmt.Printf("%-16s  %10d  (unreadable: %v)\n", filepath.Base(path), fi.Size(), err)
			continue
		}
		key := strings.TrimSuffix(filepath.Base(path), ".tbsp")
		lineage := ""
		if m.Chain.Version > 0 {
			lineage = fmt.Sprintf("  chain v%d←v%d Δ%dp wal@%d",
				m.Chain.Version, m.Chain.Parent, m.Chain.DeltaPages, m.Chain.WalOff)
		}
		fmt.Printf("%-16s  %10d bytes  v%d  %d pages  %d×%d %s  %s%s\n",
			key[:min(16, len(key))], fi.Size(), m.Version, m.Pages, m.Providers, m.Patients, m.Clustering, m.Backend, lineage)
	}
	return nil
}

func cmdRm(args []string) error {
	fs := flag.NewFlagSet("rm", flag.ExitOnError)
	dir := dirFlag(fs)
	all := fs.Bool("all", false, "remove every snapshot in the cache directory")
	fs.Parse(args)
	d, err := resolveDir(*dir)
	if err != nil {
		return err
	}
	var victims []string
	if *all {
		victims, err = filepath.Glob(filepath.Join(d, "*.tbsp"))
		if err != nil {
			return err
		}
	} else if fs.NArg() == 0 {
		return fmt.Errorf("rm wants KEY or FILE arguments (or -all)")
	}
	for _, arg := range fs.Args() {
		if strings.ContainsRune(arg, os.PathSeparator) || strings.HasSuffix(arg, ".tbsp") {
			victims = append(victims, arg)
			continue
		}
		// A key prefix: match cache entries.
		matches, _ := filepath.Glob(filepath.Join(d, arg+"*.tbsp"))
		if len(matches) == 0 {
			return fmt.Errorf("no snapshot matches %q in %s", arg, d)
		}
		victims = append(victims, matches...)
	}
	for _, path := range victims {
		if err := os.Remove(path); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", path)
	}
	return nil
}
