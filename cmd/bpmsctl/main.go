// bpmsctl is the command-line client for a running bpmsd. It speaks
// the versioned v1 API through the shared typed client
// (internal/client).
//
// Usage:
//
//	bpmsctl [-server http://localhost:8080] <command> [args]
//
// Commands:
//
//	deploy <file.json|file.xml>          deploy a definition
//	defs                                 list definitions
//	verify <processId>                   soundness-check a definition
//	start <processId> [k=v ...]          start an instance
//	ps [state] [offset limit]            list instances (paginated)
//	show <instanceId>                    inspect an instance
//	cancel <instanceId>                  cancel an instance
//	history <instanceId>                 audit trail of an instance
//	history export <file>                stream the full history as XES to a file
//	tasks <user>                         worklist + offers of a user
//	claim|begin <itemId> <user>          claim / start a work item
//	complete <itemId> <user> [k=v ...]   complete with outcome
//	fail <itemId> <user> <reason>        fail a work item
//	publish <message> <key> [k=v ...]    publish a correlated message
//	adduser <id> [role ...]              register a user in the directory
//	stats [json]                         engine statistics, pretty-printed (json = raw document)
//	violations [json]                    open SLA violations (overdue items, unsound definitions)
//	snapshot                             write a state snapshot on every shard
//	xes                                  export history as XES to stdout
//
// Values in k=v pairs parse as JSON when possible ("true", "42",
// '"text"'), falling back to plain strings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"bpms/internal/client"
)

var api *client.Client

func main() {
	server := flag.String("server", "http://localhost:8080", "bpmsd base URL")
	retries := flag.Int("retries", 3, "max attempts per request; shed 429/503 responses retry with backoff (1 = no retries)")
	timeout := flag.Duration("timeout", time.Minute, "per-request deadline including retry backoff (0 = none)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bpmsctl [-server URL] <command> [args]\nsee 'go doc bpms/cmd/bpmsctl' for commands\n")
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var copts []client.Option
	if *retries > 1 {
		pol := client.DefaultRetryPolicy
		pol.MaxAttempts = *retries
		copts = append(copts, client.WithRetry(pol))
	}
	if *timeout > 0 {
		copts = append(copts, client.WithTimeout(*timeout))
	}
	api = client.New(*server, copts...)
	cmd, rest := args[0], args[1:]
	if err := run(cmd, rest); err != nil {
		fmt.Fprintln(os.Stderr, "bpmsctl:", err)
		os.Exit(1)
	}
}

func run(cmd string, args []string) error {
	ctx := context.Background()
	switch cmd {
	case "deploy":
		if len(args) != 1 {
			return fmt.Errorf("deploy <file>")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		ct := "application/json"
		if ext := filepath.Ext(args[0]); ext == ".xml" || ext == ".bpmn" {
			ct = "application/xml"
		}
		if err := api.DeployRaw(ctx, data, ct); err != nil {
			return err
		}
		fmt.Printf("bpmsctl: deployed %s\n", args[0])
		return nil
	case "defs":
		return print(api.Definitions(ctx))
	case "verify":
		if len(args) != 1 {
			return fmt.Errorf("verify <processId>")
		}
		return print(api.Verify(ctx, args[0]))
	case "start":
		if len(args) < 1 {
			return fmt.Errorf("start <processId> [k=v ...]")
		}
		return print(api.StartInstance(ctx, args[0], parseVars(args[1:])))
	case "ps":
		q := client.InstanceQuery{}
		switch len(args) {
		case 0:
		case 1:
			q.State = args[0]
		case 3:
			q.State = args[0]
			var err error
			if q.Offset, err = strconv.Atoi(args[1]); err != nil {
				return fmt.Errorf("ps: bad offset %q", args[1])
			}
			if q.Limit, err = strconv.Atoi(args[2]); err != nil {
				return fmt.Errorf("ps: bad limit %q", args[2])
			}
		default:
			return fmt.Errorf("ps [state] [offset limit]")
		}
		return print(api.Instances(ctx, q))
	case "show":
		if len(args) != 1 {
			return fmt.Errorf("show <instanceId>")
		}
		return print(api.Instance(ctx, args[0]))
	case "cancel":
		if len(args) != 1 {
			return fmt.Errorf("cancel <instanceId>")
		}
		return api.CancelInstance(ctx, args[0])
	case "history":
		switch {
		case len(args) == 1 && args[0] != "export":
			return print(api.History(ctx, args[0]))
		case len(args) == 2 && args[0] == "export":
			return exportHistory(ctx, args[1])
		}
		return fmt.Errorf("history <instanceId> | history export <file>")
	case "tasks":
		if len(args) != 1 {
			return fmt.Errorf("tasks <user>")
		}
		worklist, offered, err := api.UserTasks(ctx, args[0])
		if err != nil {
			return err
		}
		return print(map[string][]client.Task{"worklist": worklist, "offered": offered}, nil)
	case "claim":
		if len(args) != 2 {
			return fmt.Errorf("claim <itemId> <user>")
		}
		return print(api.Claim(ctx, args[0], args[1]))
	case "begin":
		if len(args) != 2 {
			return fmt.Errorf("begin <itemId> <user>")
		}
		return print(api.StartTask(ctx, args[0], args[1]))
	case "complete":
		if len(args) < 2 {
			return fmt.Errorf("complete <itemId> <user> [k=v ...]")
		}
		return print(api.CompleteTask(ctx, args[0], args[1], parseVars(args[2:])))
	case "fail":
		if len(args) != 3 {
			return fmt.Errorf("fail <itemId> <user> <reason>")
		}
		return print(api.FailTask(ctx, args[0], args[1], args[2]))
	case "publish":
		if len(args) < 2 {
			return fmt.Errorf("publish <message> <key> [k=v ...]")
		}
		delivered, buffered, err := api.Publish(ctx, args[0], args[1], parseVars(args[2:]))
		if err != nil {
			return err
		}
		return print(map[string]any{"delivered": delivered, "buffered": buffered}, nil)
	case "adduser":
		if len(args) < 1 {
			return fmt.Errorf("adduser <id> [role ...]")
		}
		if err := api.AddUser(ctx, args[0], args[1:]...); err != nil {
			return err
		}
		fmt.Printf("bpmsctl: added user %s\n", args[0])
		return nil
	case "stats":
		if len(args) == 1 && args[0] == "json" {
			return print(api.Stats(ctx))
		}
		if len(args) != 0 {
			return fmt.Errorf("stats [json]")
		}
		return prettyStats(ctx)
	case "violations":
		if len(args) == 1 && args[0] == "json" {
			return print(api.Violations(ctx))
		}
		if len(args) != 0 {
			return fmt.Errorf("violations [json]")
		}
		return prettyViolations(ctx)
	case "snapshot":
		return print(api.Snapshot(ctx))
	case "xes":
		return api.ExportXES(ctx, os.Stdout)
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// num renders a stats value that arrived as JSON float64.
func num(v any) int64 {
	if f, ok := v.(float64); ok {
		return int64(f)
	}
	return 0
}

// prettyStats renders the stats document as a human-readable summary
// (the raw JSON stays available as `stats json`).
func prettyStats(ctx context.Context) error {
	st, err := api.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("definitions  %d\n", num(st["definitions"]))
	fmt.Printf("events       %d\n", num(st["events"]))
	if up, ok := st["uptimeSeconds"].(float64); ok {
		fmt.Printf("uptime       %s (started %v)\n", (time.Duration(up) * time.Second).String(), st["startedAt"])
	}
	if counts, ok := st["instances"].(map[string]any); ok {
		states := make([]string, 0, len(counts))
		for s := range counts {
			states = append(states, s)
		}
		sort.Strings(states)
		fmt.Println("instances")
		for _, s := range states {
			fmt.Printf("  %-10s %d\n", s, num(counts[s]))
		}
	}
	if shards, ok := st["shards"].([]any); ok {
		fmt.Println("shards")
		for _, raw := range shards {
			sh, ok := raw.(map[string]any)
			if !ok {
				continue
			}
			fmt.Printf("  %2d: %d instance(s), journal %d (synced %d), %d byte(s) on disk\n",
				num(sh["shard"]), num(sh["instances"]), num(sh["journalLast"]),
				num(sh["journalSynced"]), num(sh["diskBytes"]))
		}
	}
	if wl, ok := st["worklist"].(map[string]any); ok {
		if by, ok := wl["byState"].(map[string]any); ok && len(by) > 0 {
			states := make([]string, 0, len(by))
			for s := range by {
				states = append(states, s)
			}
			sort.Strings(states)
			fmt.Println("worklist")
			for _, s := range states {
				fmt.Printf("  %-10s %d\n", s, num(by[s]))
			}
		}
	}
	return nil
}

// prettyViolations renders the open violations, one line each.
func prettyViolations(ctx context.Context) error {
	rep, err := api.Violations(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%d open violation(s)\n", rep.Count)
	for _, v := range rep.Items {
		loc := v.InstanceID
		if loc == "" {
			loc = v.ProcessID
		}
		if loc != "" {
			loc = " [" + loc + "]"
		}
		fmt.Printf("  %-20s %s%s  since %s: %s\n", v.Kind, v.ID, loc, v.Since, v.Detail)
	}
	return nil
}

// exportHistory streams the server's XES export straight into a file:
// the response body is copied through, so neither the client nor the
// server holds the whole document in memory.
func exportHistory(ctx context.Context, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = api.ExportXES(ctx, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("bpmsctl: wrote %s\n", path)
	return nil
}

// parseVars turns k=v pairs into a map, JSON-decoding values when
// possible.
func parseVars(pairs []string) map[string]any {
	out := map[string]any{}
	for _, p := range pairs {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			continue
		}
		var decoded any
		if err := json.Unmarshal([]byte(v), &decoded); err == nil {
			out[k] = decoded
		} else {
			out[k] = v
		}
	}
	return out
}

// print pretty-prints a typed API result (the generic tail of every
// command: bail on the request error, then render as indented JSON).
func print[T any](v T, err error) error {
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(data))
	return err
}
