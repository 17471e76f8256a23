"""Small configuration texts shared by several test modules."""

import re

from gridforge.dsl import Arg, Block, ConfigAST, Ctor, Entry, Loop, Ref, parse
from oracles import unparse

# One node, one naming service. The smallest thing that exercises the
# whole pipeline: composite generation, barrier binding, service planning.
MINI = """
app = OpenCCM.Deployment {
  nodes = {
    node-0 = Grid5000_NODE {
      hostname = StaticHost(simnode-0)
      jre = Jre(/opt/java/jre)
    }
  }
  services = {
    ns = OpenCCM.NameService {
      node = nodes/node-0
    }
  }
}
"""


def chain(n: int) -> str:
    """N nodes, ns on node-0, manager on node-0, one server per other node."""
    from gridforge.bench import middleware_config

    return middleware_config(n)


def reserved(n_nodes: int, granted: int) -> str:
    """Dynamic-host deployment whose nodelist comes from a reservation.

    `n_nodes` node stacks consume a reservation granting `granted` slots,
    so granted < n_nodes reproduces the over-subscription failure.
    """
    return f"""
app = OpenCCM.Deployment {{
  nodes = {{
    hostname = DynamicHost(~/nodelist)
    frontend = Grid5000_NODE {{
      hostname = StaticHost(frontend.example)
    }}
    apply FOR(i,0,{n_nodes - 1}) {{
      node-%{{i}} = Grid5000_NODE {{
        hostname = nodes/hostname
        jre = Jre(/opt/java/jre)
      }}
    }}
  }}
  services = {{
    reservation = OARGrid(site={granted},~/nodelist) {{
      node = nodes/frontend
    }}
    ns = OpenCCM.NameService {{
      node = nodes/node-0
    }}
  }}
}}
"""


def paper_pair(n_nodes: int) -> tuple[str, str]:
    """The paper's deployment at `n_nodes` nodes and its reservation fragment.

    As in tests/data, the reservation comes second, so it is the last
    service declared: every node stack waits behind it while the services
    declared before it are blocked.
    """
    app = f"""
MyDeployment = OpenCCM.Deployment {{
  nodes = {{
    hostname = DynamicHost(~/nodelist)
    apply FOR(i,0,{n_nodes - 1}) {{
      node-%{{i}} = Grid5000_NODE {{
        hostname = nodes/hostname
        jre = Jre(/opt/java/jre)
        openccm = OpenCCM(/opt/OpenCCM,/opt/CORBA/JacORB)
      }}
    }}
  }}
  services = {{
    ns = OpenCCM.NameService {{
      node = nodes/node-0
    }}
    dci = OpenCCM.DCIManager(MyDCI) {{
      ns = services/ns
      node = nodes/node-0
    }}
    servers = ParallelRunner {{
      apply FOR(i,1,{n_nodes - 1}) {{
        server-%{{i}} = OpenCCM.DCI_NODE(NM_%{{i}}) {{
          dci = services/dci
          node = nodes/node-%{{i}}
        }}
      }}
    }}
  }}
}}
"""
    reservation = f"""
nodes = {{
  oar_server = Grid5000_NODE {{
    hostname = StaticHost(oar.example)
  }}
}}
services = {{
  reservation = OARGrid(site={n_nodes},~/nodelist) {{
    node = nodes/oar_server
  }}
}}
"""
    return app, reservation


_VARIABLE = re.compile(r"%\{(\w+)\}")


def unroll(text: str) -> str:
    """`text` with every `apply FOR` written out by hand: its body once per
    value of the variable, both bounds included, with each bound `%{var}`
    replaced in names, arguments and reference paths.  A `%{var}` that no
    enclosing loop binds is left as it is written."""

    def fill(written: str, env: dict) -> str:
        return _VARIABLE.sub(lambda m: str(env[m.group(1)]) if m.group(1) in env else m.group(0), written)

    def entries(items: list, env: dict) -> list:
        out = []
        for item in items:
            if isinstance(item, Loop):
                for i in range(item.lo, item.hi + 1):
                    out += entries(item.body, {**env, item.var: i})
            else:
                out.append(Entry(fill(item.name, env), value(item.value, env)))
        return out

    def value(written, env: dict):
        if isinstance(written, Ref):
            return Ref(tuple(fill(part, env) for part in written.path))
        if isinstance(written, Block):
            return Block(entries(written.entries, env))
        body = None if written.body is None else value(written.body, env)
        return Ctor(written.kind, [Arg(fill(arg.text, env)) for arg in written.args], body)

    return unparse(ConfigAST(entries(parse(text).entries, {})))


def random_config(rng) -> str:
    """A seeded random configuration of a few nodes and services.

    Node bodies mix roles that vary per node (`StaticHost(simnode-%{i})`)
    with shared ones, role references to shared hosts, to another node's
    own host (`hostname = nodes/node-0/hostname`, or `nodes/node-0/h`) and
    to the node's own `h` (`hostname = nodes/node-3/h` in node-3's body),
    loops, written-out and bodiless nodes.  Services bind to nodes
    (through their barrier) and to `NodeReady` node roles, never to a
    shared `NodeReady` unit, which generation always refuses.
    Some hold a fault that expand, generate, validate or the planner
    reports: a duplicate name, a dangling or misdirected reference, an
    unbound loop variable, an unknown kind, a missing argument, the
    reserved role name, an unbound port or a cycle."""

    def chance(p: float) -> bool:
        return rng.random() < p

    shared = {
        name: value
        for name, value, p in (
            ("hostname", "DynamicHost(~/nodelist)", 0.6),
            ("alt", "DynamicHost(~/other)", 0.3),
            ("static", "StaticHost(static.example)", 0.2),
            ("nr", "NodeReady", 0.3),
            ("port", "Port(2222)", 0.2),
        )
        if chance(p)
    }
    roles_of: dict[str, list[str]] = {}  # node name -> its role names

    def node(names: list[str], i: str) -> str:
        """One node entry, written for each of `names`; `i` is its index text."""
        own = "nodes/node-%{i}/h"  # the node's own `h` role
        hostnames = ["StaticHost(simnode-%{i})", "StaticHost(fixed.example)", own]
        hostnames += [f"nodes/{name}" for name in ("hostname", "alt", "static") if name in shared]
        first = roles_of.get("node-0", ())
        if "h" in first:  # node-0's hostname is a reference to its `h`
            hostnames.append("nodes/node-0/h")
        elif "hostname" in first or chance(0.02):
            hostnames.append("nodes/node-0/hostname")
        extras = ["spare = StaticHost(spare-%{i})", "jre = Jre(/opt/java/jre)", "user = User(root)"]
        extras += ["openccm = OpenCCM(/opt/OpenCCM,/opt/CORBA/JacORB)\njre = Jre(/opt/java/jre)", "extra = NodeReady"]
        extras.append("port = nodes/port" if "port" in shared else "port = Port(22)")
        if "hostname" in shared:
            extras.append("host = nodes/hostname")
        picked = rng.sample(extras, rng.randint(0, 3))
        roles = list(dict.fromkeys(line for extra in picked for line in extra.split("\n")))  # one jre line
        if chance(0.7):
            hostname = rng.choice(hostnames)
            roles.append("hostname = " + hostname)
            if hostname == own:
                roles.append("h = StaticHost(own-%{i})")
        if chance(0.01):
            roles.append(rng.choice(["ready = NodeReady", "jre = Jre", "x = Bogus", "y = StaticHost(%{j})"]))
        rng.shuffle(roles)
        for name in names:
            roles_of[name] = [line.split(" ")[0] for line in roles]
        name = "node-%{i}" if len(names) > 1 else names[0]
        if not roles:
            return f"{name} = Grid5000_NODE"
        return f"{name} = Grid5000_NODE {{\n" + "".join(f"  {line.replace('%{i}', i)}\n" for line in roles) + "}"

    n = rng.randint(1, 8)
    blocks = [f"{name} = {value}" for name, value in shared.items()]
    rng.shuffle(blocks)
    k = 0
    while k < n:
        span = rng.randint(1, n - k) if chance(0.6) else 1
        names = [f"node-{j}" for j in range(k, k + span)]
        if span > 1:
            body = node(names, "%{i}").replace("\n", "\n  ")
            blocks.append(f"apply FOR(i,{k},{k + span - 1}) {{\n  {body}\n}}")
        else:
            blocks.append(node(names, str(k)))
        k += span
    if chance(0.3):
        blocks.insert(rng.randint(0, len(blocks)), "frontend = Grid5000_NODE { hostname = StaticHost(front.example) }")
        roles_of["frontend"] = ["hostname"]

    def target() -> str:
        name = rng.choice(list(roles_of))
        choices = [f"nodes/{name}"] * 4
        if "extra" in roles_of[name]:
            choices.append(f"nodes/{name}/extra")
        if chance(0.03):
            choices = [f"nodes/{name}/hostname", "nodes/node-99"]
        return rng.choice(choices)

    services = []
    if chance(0.5):
        path = rng.choice(["~/nodelist", "~/other", "~/elsewhere"])
        services.append(f"reservation = OARGrid(site={n},{path}) {{ node = {target()} }}")
    if chance(0.8):
        services.append(f"ns = OpenCCM.NameService {{ node = {target()} }}")
        if chance(0.7):
            services.append(f"dci = OpenCCM.DCIManager(MyDCI) {{\n  ns = services/ns\n  node = {target()}\n}}")
            if n > 1 and chance(0.6):
                services.append(
                    f"servers = ParallelRunner {{\n  apply FOR(i,1,{n - 1}) {{\n"
                    "    server-%{i} = OpenCCM.DCI_NODE(NM_%{i}) {\n"
                    "      dci = services/dci\n      node = nodes/node-%{i}\n    }\n  }\n}"
                )
    if chance(0.4):
        deployer = f"deployer = Kadeploy(image) {{ node = {target()} }}"
        services.append(f"group = ParallelRunner {{\n  {deployer}\n}}" if chance(0.5) else deployer)
    if chance(0.02):
        services.insert(0, "stray = OpenCCM.NameService { node = nodes/missing }")
    if chance(0.02):
        blocks.append(rng.choice(blocks))

    def block(name: str, entries: list[str]) -> str:
        inner = "\n".join(entries).replace("\n", "\n    ")
        return f"  {name} = {{\n    {inner}\n  }}\n"

    text = "app = OpenCCM.Deployment {\n" + block("nodes", blocks)
    if services:
        text += block("services", services)
    return text + "}\n"
