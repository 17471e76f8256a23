"""Small configuration texts shared by several test modules."""

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
