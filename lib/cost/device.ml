type t = {
  seq_page_io : float;
  random_page_io : float;
  cpu_per_tuple : float;
  cpu_per_compare : float;
  choose_plan_overhead : float;
  plan_node_bytes : int;
  plan_disk_bandwidth : float;
  activation_base : float;
}

let default =
  { seq_page_io = 0.004;
    random_page_io = 0.01;
    cpu_per_tuple = 5e-5;
    cpu_per_compare = 1e-5;
    choose_plan_overhead = 0.01;
    plan_node_bytes = 128;
    plan_disk_bandwidth = 2e6;
    activation_base = 0.1 }

let plan_io_time t ~nodes =
  float_of_int (nodes * t.plan_node_bytes) /. t.plan_disk_bandwidth
