open Pan_numerics

type point = { lat : float; lon : float }

let earth_radius_km = 6371.0

let rad deg = deg *. Float.pi /. 180.0

let distance_km p1 p2 =
  let dlat = rad (p2.lat -. p1.lat) and dlon = rad (p2.lon -. p1.lon) in
  let a =
    (sin (dlat /. 2.0) ** 2.0)
    +. (cos (rad p1.lat) *. cos (rad p2.lat) *. (sin (dlon /. 2.0) ** 2.0))
  in
  2.0 *. earth_radius_km *. atan2 (sqrt a) (sqrt (1.0 -. a))

type t = {
  as_loc : (Asn.t, point) Hashtbl.t;
  link_loc : (Asn.t * Asn.t, point) Hashtbl.t;
}

let clamp lo hi x = Float.max lo (Float.min hi x)

(* Longitudes are confined to (-150, 150) so naive centroid averaging never
   crosses the antimeridian. *)
let random_hub rng =
  { lat = Rng.uniform rng (-50.0) 65.0; lon = Rng.uniform rng (-145.0) 145.0 }

let centroid points =
  let n = float_of_int (List.length points) in
  let lat = List.fold_left (fun a p -> a +. p.lat) 0.0 points /. n in
  let lon = List.fold_left (fun a p -> a +. p.lon) 0.0 points /. n in
  { lat; lon }

let jitter rng spread p =
  {
    lat = clamp (-85.0) 85.0 (p.lat +. Rng.gaussian rng 0.0 spread);
    lon = clamp (-150.0) 150.0 (p.lon +. Rng.gaussian rng 0.0 spread);
  }

let link_key x y = if Asn.compare x y <= 0 then (x, y) else (y, x)

let midpoint p1 p2 =
  { lat = 0.5 *. (p1.lat +. p2.lat); lon = 0.5 *. (p1.lon +. p2.lon) }

(* Link placement iterates the frozen CSR link lists, so the jitter RNG is
   consumed in a fixed, insertion-independent order: peering links first
   (both endpoints ascending), then provider-customer links. *)
let place_links ?rng c as_loc =
  let link_loc = Hashtbl.create 4096 in
  let place x y =
    let key = link_key x y in
    if not (Hashtbl.mem link_loc key) then begin
      let px = Hashtbl.find as_loc x and py = Hashtbl.find as_loc y in
      let m = midpoint px py in
      let m = match rng with Some r -> jitter r 1.0 m | None -> m in
      Hashtbl.replace link_loc key m
    end
  in
  Compact.iter_peering_links c (fun i j -> place (Compact.id c i) (Compact.id c j));
  Compact.iter_provider_customer_links c (fun ~provider ~customer ->
      place (Compact.id c provider) (Compact.id c customer));
  link_loc

let of_compact ?(hubs = 40) ~seed c =
  if hubs < 1 then invalid_arg "Geo.generate: hubs < 1";
  let rng = Rng.create seed in
  let hub_points = Array.init hubs (fun _ -> random_hub rng) in
  let n = Compact.num_ases c in
  let as_loc = Hashtbl.create 4096 in
  (* Place ASes top-down: provider-less ASes at hub centroids, then each
     remaining AS near the centroid of its already-placed providers.  A
     worklist pass handles provider cycles (possible in hand-built graphs)
     by falling back to a random hub. *)
  let placed i = Hashtbl.mem as_loc (Compact.id c i) in
  let place_root i =
    let k = 1 + Rng.int rng 3 in
    let picks = List.init k (fun _ -> Rng.choose rng hub_points) in
    Hashtbl.replace as_loc (Compact.id c i) (centroid picks)
  in
  for i = 0 to n - 1 do
    if Compact.providers_count c i = 0 then place_root i
  done;
  let pending = ref (List.filter (fun i -> not (placed i)) (List.init n Fun.id)) in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    pending :=
      List.filter
        (fun i ->
          let ready = ref [] in
          Compact.iter_providers c i (fun p ->
              if placed p then ready := p :: !ready);
          match !ready with
          | [] -> true
          | ready ->
              let base =
                centroid
                  (List.rev_map
                     (fun p -> Hashtbl.find as_loc (Compact.id c p))
                     ready)
              in
              Hashtbl.replace as_loc (Compact.id c i) (jitter rng 4.0 base);
              progress := true;
              false)
        !pending
  done;
  List.iter (fun i -> place_root i) !pending;
  { as_loc; link_loc = place_links ~rng c as_loc }

let generate ?hubs ~seed g = of_compact ?hubs ~seed (Compact.freeze g)

let of_locations g locations =
  let c = Compact.freeze g in
  let as_loc = Hashtbl.create 4096 in
  Array.iter
    (fun x ->
      match Asn.Map.find_opt x locations with
      | Some p -> Hashtbl.replace as_loc x p
      | None ->
          invalid_arg
            (Printf.sprintf "Geo.of_locations: no location for AS%d"
               (Asn.to_int x)))
    (Compact.asns c);
  { as_loc; link_loc = place_links c as_loc }

let as_location t x = Hashtbl.find t.as_loc x
let link_location t x y = Hashtbl.find t.link_loc (link_key x y)

let path3_geodistance t a1 a2 a3 =
  let l12 = link_location t a1 a2 and l23 = link_location t a2 a3 in
  distance_km (as_location t a1) l12
  +. distance_km l12 l23
  +. distance_km l23 (as_location t a3)
